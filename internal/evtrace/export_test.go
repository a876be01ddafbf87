package evtrace

// NumKinds is the number of event kinds.
const NumKinds = int(numKinds)

// WidenToAllKinds re-subscribes the one subscriber of t to every kind: the
// catch-all reference a kind-filtered consumer is compared against. The
// consumer keeps whatever else its Attach set up, such as the tracer it
// reads thread names from.
func WidenToAllKinds(t *Tracer) {
	var fn func(Event)
	for k, subs := range t.byKind {
		if len(subs) > 1 {
			panic("WidenToAllKinds: more than one subscriber")
		}
		if len(subs) == 1 && fn == nil {
			fn = subs[0]
		}
		t.byKind[k] = nil
	}
	t.Subscribe(fn)
}

// SubscribedKinds counts the kinds with at least one subscriber.
func SubscribedKinds(t *Tracer) int {
	n := 0
	for _, subs := range t.byKind {
		if len(subs) > 0 {
			n++
		}
	}
	return n
}
