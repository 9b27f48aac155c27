package route

// PathSet names the router paths a routing algorithm can put a packet on,
// in terms of a Router's minimal paths. Its longest path sizes the
// hop-indexed virtual channels of Section IV-D (after Gopal: hop k travels
// on VC k), and its shape says how the path is chosen.
//
// Every set but UpDown fixes the path at injection: each hop follows the
// minimal path toward the destination or a chosen intermediate router.
// UpDown is the only set whose path is chosen hop by hop, and its channel
// dependencies are acyclic whatever VC a hop takes.
type PathSet uint8

const (
	// Minimal is the minimal path from source to destination.
	Minimal PathSet = iota
	// Valiant is every minimal path s -> i followed by the minimal path
	// i -> d, over the intermediate routers i. VAL-3hop is in it too: when
	// no short path is drawn it falls back to an unconstrained intermediate.
	Valiant
	// Union is Minimal and Valiant together: UGAL picks one at injection.
	Union
	// UpDown is up*/down* routing on a fat tree: climb to a common
	// ancestor of source and destination, then descend.
	UpDown
)

// MaxHops returns the longest path of the set on a network of the given
// diameter.
func (p PathSet) MaxHops(diameter int) int {
	if p == Valiant || p == Union {
		return 2 * diameter
	}
	return diameter
}
