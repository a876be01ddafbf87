package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	in := Envelope{Type: MsgShard, Shard: 7, Lo: 10, Hi: 20}
	var buf bytes.Buffer
	if err := WriteMsg(&buf, &in); err != nil {
		t.Fatalf("WriteMsg: %v", err)
	}
	var out Envelope
	if err := ReadMsg(&buf, &out); err != nil {
		t.Fatalf("ReadMsg: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("roundtrip mismatch:\n in=%+v\nout=%+v", in, out)
	}

	// A record-bearing frame survives too.
	rec := CellRecord{Index: 3, Digest: "abc", Events: 9, Violations: 1,
		Failed: true, Summary: "boom"}
	in = Envelope{Type: MsgCell, Shard: 1, Record: &rec}
	buf.Reset()
	if err := WriteMsg(&buf, &in); err != nil {
		t.Fatalf("WriteMsg: %v", err)
	}
	if err := ReadMsg(&buf, &out); err != nil {
		t.Fatalf("ReadMsg: %v", err)
	}
	if out.Record == nil || !reflect.DeepEqual(*out.Record, rec) {
		t.Fatalf("record mismatch: %+v", out.Record)
	}
}

// frame builds a length-prefixed frame with an arbitrary (possibly lying)
// length header.
func frame(length uint32, body []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], length)
	return append(hdr[:], body...)
}

func TestReadMsgGarbageInput(t *testing.T) {
	valid, _ := json.Marshal(Envelope{Type: MsgPing, Seq: 1})
	cases := []struct {
		name string
		in   []byte
		want string // substring of the expected error; "" means io.EOF
	}{
		{"empty input is clean EOF", nil, ""},
		{"zero length prefix", frame(0, nil), "out of range"},
		{"oversized length prefix", frame(MaxFrame+1, nil), "out of range"},
		{"truncated header", []byte{0, 0}, "short frame header"},
		{"truncated body", frame(100, []byte("only a few bytes")), "truncated"},
		{"body is not JSON", frame(9, []byte("not json!")), "bad frame"},
		{"body is JSON but not an envelope", frame(7, []byte(`[1,2,3]`)), "bad frame"},
		{"envelope missing type", frame(2, []byte(`{}`)), "missing type"},
		{"valid frame then truncated next header", append(frame(uint32(len(valid)), valid), 0, 1), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := bytes.NewReader(tc.in)
			var env Envelope
			err := ReadMsg(r, &env)
			if tc.name == "valid frame then truncated next header" {
				if err != nil {
					t.Fatalf("first frame should parse, got %v", err)
				}
				if err = ReadMsg(r, &env); err == nil ||
					!strings.Contains(err.Error(), "short frame header") {
					t.Fatalf("second read: want short-header error, got %v", err)
				}
				return
			}
			if tc.want == "" {
				if !errors.Is(err, io.EOF) {
					t.Fatalf("want io.EOF, got %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestWriteMsgRejectsOversizedFrame(t *testing.T) {
	big := make([]byte, MaxFrame)
	for i := range big {
		big[i] = 'a'
	}
	env := Envelope{Type: MsgCell, Record: &CellRecord{Index: 1, Summary: string(big)}}
	if err := WriteMsg(io.Discard, &env); err == nil {
		t.Fatal("want oversized-frame error, got nil")
	}
}

// FuzzReadMsg asserts the codec never panics or over-allocates on
// arbitrary bytes: every input yields either a parsed envelope with a
// non-empty type or an error.
func FuzzReadMsg(f *testing.F) {
	valid, _ := json.Marshal(Envelope{Type: MsgShard, Shard: 1, Lo: 0, Hi: 4})
	f.Add(frame(uint32(len(valid)), valid))
	f.Add(frame(0, nil))
	f.Add(frame(1<<31, nil))
	f.Add([]byte("garbage with no header at all"))
	f.Add(frame(4, []byte(`{}`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var env Envelope
		err := ReadMsg(bytes.NewReader(data), &env)
		if err == nil && env.Type == "" {
			t.Fatal("nil error but empty envelope type")
		}
	})
}
