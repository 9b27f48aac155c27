package slimfly_test

import (
	"fmt"

	"slimfly/internal/moore"
	"slimfly/internal/topo"
	"slimfly/internal/topo/slimfly"
)

// The paper's headline properties (Section II): the Hoffman-Singleton
// Slim Fly has diameter 2 and meets the Moore bound, q=19 gives the
// 10 830-endpoint configuration of Sections V and VI, and a 48-port
// router hosts that same network.
func Example() {
	sf := slimfly.MustNew(5)
	fmt.Println(topo.Summary(sf))
	fmt.Printf("generator sets: X=%v X'=%v (xi=%d)\n", sf.X, sf.Xp, sf.F.PrimitiveElement())

	st := sf.Graph().AllPairsStats()
	fmt.Printf("measured diameter: %d, average router distance: %.3f\n", st.Diameter, st.AvgDist)
	fmt.Printf("Moore bound for k'=%d, D=2: %d routers; SF reaches %d (%.0f%%)\n",
		sf.NetworkRadix(), moore.Bound2(sf.NetworkRadix()), sf.Routers(),
		100*moore.Fraction(sf.Routers(), sf.NetworkRadix(), 2))

	fmt.Println(topo.Summary(slimfly.MustNew(19)))
	fmt.Printf("valid orders up to 64: %v\n", slimfly.ValidOrders(3, 64))

	if q, ok := slimfly.ForRadix(48); ok {
		fmt.Printf("largest SF for 48-port routers: q=%d with N=%d endpoints\n", q, slimfly.MustNew(q).Endpoints())
	}
	// Output:
	// SF: N=200 endpoints, Nr=50 routers, p=4, k'=7, k=11, D=2
	// generator sets: X=[1 4] X'=[2 3] (xi=2)
	// measured diameter: 2, average router distance: 1.857
	// Moore bound for k'=7, D=2: 50 routers; SF reaches 50 (100%)
	// SF: N=10830 endpoints, Nr=722 routers, p=15, k'=29, k=44, D=2
	// valid orders up to 64: [3 4 5 7 8 9 11 13 16 17 19 23 25 27 29 31 32 37 41 43 47 49 53 59 61 64]
	// largest SF for 48-port routers: q=19 with N=10830 endpoints
}

// Building the Hoffman-Singleton Slim Fly (the paper's worked example,
// Section II-B1d) and reading off its parameters.
func ExampleNew() {
	sf, err := slimfly.New(5)
	if err != nil {
		panic(err)
	}
	fmt.Println("routers:", sf.Routers())
	fmt.Println("network radix:", sf.NetworkRadix())
	fmt.Println("endpoints:", sf.Endpoints())
	fmt.Println("X:", sf.X, "X':", sf.Xp)
	// Output:
	// routers: 50
	// network radix: 7
	// endpoints: 200
	// X: [1 4] X': [2 3]
}

// Finding the largest Slim Fly that a 108-port director switch can host.
func ExampleForRadix() {
	q, ok := slimfly.ForRadix(108)
	if !ok {
		panic("no configuration")
	}
	sf, _ := slimfly.New(q)
	fmt.Println("q:", q)
	fmt.Println("endpoints:", sf.Endpoints())
	// Output:
	// q: 47
	// endpoints: 159048
}
