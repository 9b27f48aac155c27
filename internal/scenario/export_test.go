package scenario

// KeySlot exposes Spec.Key's memo slot index, so tests can build specs
// that share a slot.
var KeySlot = keySlot
