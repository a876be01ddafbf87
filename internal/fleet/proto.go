// Package fleet is the sharded multi-process sweep engine: a coordinator
// that partitions a prefix-stable cell space into shards and dispatches
// them to worker processes speaking length-prefixed JSON over their
// stdin/stdout, with cross-shard work stealing for stragglers, bounded
// per-worker in-flight caps, heartbeat/deadline failure detection, and
// bounded re-dispatch of shards lost to crashed or hung workers.
//
// The paper's own medicine, applied to our harness: the experiment runner
// used to fan a few hundred cells across one process's cores with a
// static submission order, which serializes exactly the way HotSpot's GC
// task distribution does when work and scheduling interact badly. The
// fleet layer scales the check cell space (check.CellAt, served by
// CheckRunner) to 100k+ cells across processes, and keeps
// determinism as the fleet-level correctness oracle: the merged
// gcsim-sweep/v1 report is byte-identical regardless of shard count,
// worker count, steal interleaving, or injected worker kills.
package fleet

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// ProtoVersion is the coordinator/worker wire protocol version; the
// worker's hello carries it and the coordinator refuses a mismatch.
const ProtoVersion = 1

// MaxFrame bounds one protocol frame. Frames beyond it are a protocol
// error, not an allocation: a corrupt or malicious length prefix cannot
// make ReadMsg allocate gigabytes.
const MaxFrame = 16 << 20

// MsgType tags one protocol envelope.
type MsgType string

// Coordinator→worker: MsgShard assigns cells [Lo,Hi) as shard Shard;
// MsgSteal asks the worker to give back the unstarted tail of shard
// Shard, cutting no earlier than Cut; MsgPing probes liveness; MsgDrain
// asks the worker to finish its current cell, stop, and exit.
//
// Worker→coordinator: MsgHello announces readiness (Seq carries the
// protocol version); MsgCell delivers one cell's record; MsgShardDone
// marks shard Shard fully executed; MsgStolen answers a MsgSteal with the
// actual cut point (cells [Cut,Hi) now belong to the coordinator again);
// MsgPong answers a ping; MsgBye announces a clean exit.
const (
	MsgHello     MsgType = "hello"
	MsgShard     MsgType = "shard"
	MsgCell      MsgType = "cell"
	MsgShardDone MsgType = "shard_done"
	MsgSteal     MsgType = "steal"
	MsgStolen    MsgType = "stolen"
	MsgPing      MsgType = "ping"
	MsgPong      MsgType = "pong"
	MsgDrain     MsgType = "drain"
	MsgBye       MsgType = "bye"
)

// Envelope is the one wire message shape. Which fields are meaningful
// depends on Type (see the MsgType docs); unused fields stay zero and are
// omitted from the encoding.
type Envelope struct {
	Type MsgType `json:"type"`

	Shard int `json:"shard,omitempty"`
	Lo    int `json:"lo,omitempty"`
	Hi    int `json:"hi,omitempty"`
	Cut   int `json:"cut,omitempty"`

	// Seq is the ping/pong correlation counter, and the protocol version
	// on MsgHello.
	Seq uint64 `json:"seq,omitempty"`

	// Record is the cell result on MsgCell.
	Record *CellRecord `json:"record,omitempty"`

	// Err carries a worker-side infrastructure error on MsgBye.
	Err string `json:"err,omitempty"`
}

// CellRecord is one cell's merged-report row — everything the coordinator
// needs to fold a cell into the gcsim-sweep/v1 report. Every field is a
// deterministic function of the cell index (and the sweep's fixed
// configuration), never of which worker ran it or when: that is what
// makes the merged report byte-identical across shard counts, worker
// counts, steal interleavings, and injected kills.
type CellRecord struct {
	Index int `json:"index"`

	// Digest is the cell's observable-output digest.
	Digest string `json:"digest,omitempty"`

	Events     uint64 `json:"events,omitempty"`
	Violations int    `json:"violations,omitempty"`
	Drops      uint64 `json:"drops,omitempty"`
	Pathology  string `json:"pathology,omitempty"`

	Failed  bool   `json:"failed,omitempty"`
	Summary string `json:"summary,omitempty"`
}

// WriteMsg frames env as a 4-byte big-endian length followed by its JSON
// encoding. The caller serializes concurrent writers.
func WriteMsg(w io.Writer, env *Envelope) error {
	body, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("fleet: marshal %s: %w", env.Type, err)
	}
	if len(body) > MaxFrame {
		return fmt.Errorf("fleet: %s frame is %d bytes, max %d", env.Type, len(body), MaxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// ReadMsg reads one frame into env. Garbage input — an oversized or zero
// length prefix, a truncated frame, bytes that are not JSON, JSON that is
// not an envelope, or an envelope without a type — is an error, never a
// panic or an unbounded allocation. io.EOF is returned untouched at a
// clean frame boundary so callers can distinguish an orderly close from
// corruption.
func ReadMsg(r io.Reader, env *Envelope) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("fleet: short frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrame {
		return fmt.Errorf("fleet: frame length %d out of range (1..%d)", n, MaxFrame)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return fmt.Errorf("fleet: truncated %d-byte frame: %w", n, err)
	}
	*env = Envelope{}
	if err := json.Unmarshal(body, env); err != nil {
		return fmt.Errorf("fleet: bad frame: %w", err)
	}
	if env.Type == "" {
		return fmt.Errorf("fleet: frame missing type")
	}
	return nil
}
