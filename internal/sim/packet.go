package sim

// Packet is a single-flit packet (the paper uses single-flit packets to
// isolate routing behaviour from flow control, Section V). It is copied on
// every hop, so it is kept compact -- cycle stamps are int32 (2^31 cycles is
// far beyond any simulation window in the study) -- and, with the pool link,
// exactly 32 bytes: two slots per cache line, none straddling one.
//
// A *Packet handed out by the engine points into a router's packet pool and
// is valid until the next push into the same router's pool, which may grow
// (and so move) it.
type Packet struct {
	Src, Dst  int32 // endpoint ids
	DstRouter int32
	Interm    int32 // Valiant intermediate router (-1 = minimal)
	Birth     int32 // injection cycle
	ReadyAt   int32 // cycle at which the head flit may arbitrate
	Hops      int8  // network hops taken so far
	Phase     int8  // 0 = toward Interm, 1 = toward DstRouter
	Measured  bool
	// next is the slot's link in its router's pool: the following packet of
	// the same queue, or the following free slot. A queue's tail and a freshly
	// copied packet carry a stale link; nothing follows it before pushTail or
	// dropHead rewrites it.
	next int32
}

// queue is one input queue, 16 bytes so that four share a cache line and none
// straddles one: the pool slots linked from head to tail in arrival order, and
// state, the packed head cache (packHead) setHead maintains. Whether the queue
// holds anything is its bit in router.occ and nowhere else; head, tail and
// state are meaningful only while that bit is set.
type queue struct {
	head, tail int32
	state      uint64
}

// pushTail links a slot at the tail of input queue q and returns it for the
// caller to fill and publish; the queue was empty iff its occ bit is clear,
// and stays so marked until publish sets it. It reuses the most recently freed
// slot -- the one likeliest to still be in cache -- and grows the pool only
// when every slot is queued. New allocates no slots, so a router's pool holds
// exactly as many as the most flits it ever buffered at once, whatever depth
// the credits allow.
func (rt *router) pushTail(q int) *Packet {
	slot := rt.free
	if slot >= 0 {
		rt.free = rt.pkts[slot].next
	} else {
		slot = int32(len(rt.pkts))
		rt.pkts = append(rt.pkts, Packet{}) //sf:allow(append: the pool grows to the router's peak buffered flits and stops -- amortised, logarithmically many reallocations; only a saturated source queue keeps it growing)
	}
	qu := &rt.queues[q]
	if rt.occ[q>>6]>>(uint(q)&63)&1 == 0 { // written out: an inlined helper here costs pushTail its own inlining
		qu.head = slot
	} else {
		rt.pkts[qu.tail].next = slot
	}
	qu.tail = slot
	return &rt.pkts[slot]
}
