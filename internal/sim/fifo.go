package sim

// Packet is a single-flit packet (the paper uses single-flit packets to
// isolate routing behaviour from flow control, Section V). It is copied on
// every hop, so it is kept compact: cycle stamps are int32 (2^31 cycles is
// far beyond any simulation window in the study).
type Packet struct {
	Src, Dst  int32 // endpoint ids
	DstRouter int32
	Interm    int32 // Valiant intermediate router (-1 = minimal)
	Birth     int32 // injection cycle
	ReadyAt   int32 // cycle at which the head flit may arbitrate
	Hops      int8  // network hops taken so far
	VC        int8  // VC occupied at the current input
	Phase     int8  // 0 = toward Interm, 1 = toward DstRouter
	Measured  bool
}

// fifo is an endpoint's unbounded source (injection) queue: the live
// packets are buf[head:], in arrival order. Network input queues are not
// fifos -- they are fixed windows of their router's packet ring (see
// router.pkts). Keeping packets in the buffer (rather than behind another
// indirection) means successive heads of one queue share cache lines.
type fifo struct {
	buf  []Packet
	head int // index of the first element
}

func (f *fifo) empty() bool { return f.head == len(f.buf) }

// pushTail appends a zeroed slot and returns a pointer to it, valid until
// the next queue operation. The injection path constructs packets in place
// in it instead of copying them in.
func (f *fifo) pushTail() *Packet {
	if f.head > len(f.buf)/2 {
		f.buf = f.buf[:copy(f.buf, f.buf[f.head:])]
		f.head = 0
	}
	f.buf = append(f.buf, Packet{}) //sf:allow(append: unbounded source queue; growth is amortised and the compaction above reclaims slack first)
	return &f.buf[len(f.buf)-1]
}

// drop removes the head packet, which must exist.
func (f *fifo) drop() {
	f.head++
	if f.empty() {
		f.buf = f.buf[:0]
		f.head = 0
	}
}
