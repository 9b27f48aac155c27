package exp_test

import (
	"fmt"
	"strings"

	"slimfly/internal/exp"
	"slimfly/internal/moore"
	"slimfly/internal/roster"
	"slimfly/internal/topo/slimfly"
)

// The analysis behind Figures 1 and 5: the balanced Slim Fly library
// against the diameter-2 Moore bound, the average distance of every
// topology kind at about 2 000 endpoints, and the diameter-3
// constructions against the diameter-3 bound.
func Example_designSpace() {
	fmt.Println("q  k'  p   k   routers N      MB2")
	for _, q := range slimfly.ValidOrders(3, 64) {
		kp, nr, _, _ := slimfly.Params(q)
		p := slimfly.BalancedConcentration(kp)
		fmt.Printf("%-2d %-3d %-3d %-3d %-7d %-6d %.1f%%\n",
			q, kp, p, kp+p, nr, p*nr, 100*moore.Fraction(nr, kp, 2))
	}

	fmt.Println("average router hops at N ~ 2000:")
	for _, kind := range roster.Kinds() {
		t, err := roster.Near(kind, 2000, 1)
		if err != nil {
			continue
		}
		fmt.Printf("%-5s N=%d hops=%.3f D=%d\n",
			kind, t.Endpoints(), exp.AvgEndpointHops(t), t.DesignDiameter())
	}

	// The table pads its last column; an Output block keeps no trailing space.
	for _, line := range strings.Split(strings.TrimSpace(exp.Fig5b(40).String()), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
	// Output:
	// q  k'  p   k   routers N      MB2
	// 3  5   3   8   18      54     69.2%
	// 4  6   3   9   32      96     86.5%
	// 5  7   4   11  50      200    100.0%
	// 7  11  6   17  98      588    80.3%
	// 8  12  6   18  128     768    88.3%
	// 9  13  7   20  162     1134   95.3%
	// 11 17  9   26  242     2178   83.4%
	// 13 19  10  29  338     3380   93.4%
	// 16 24  12  36  512     6144   88.7%
	// 17 25  13  38  578     7514   92.3%
	// 19 29  15  44  722     10830  85.7%
	// 23 35  18  53  1058    19044  86.3%
	// 25 37  19  56  1250    23750  91.2%
	// 27 41  21  62  1458    30618  86.7%
	// 29 43  22  65  1682    37004  90.9%
	// 31 47  24  71  1922    46128  87.0%
	// 32 48  24  72  2048    49152  88.9%
	// 37 55  28  83  2738    76664  90.5%
	// 41 61  31  92  3362    104222 90.3%
	// 43 65  33  98  3698    122034 87.5%
	// 47 71  36  107 4418    159048 87.6%
	// 49 73  37  110 4802    177674 90.1%
	// 53 79  40  119 5618    224720 90.0%
	// 59 89  45  134 6962    313290 87.9%
	// 61 91  46  137 7442    342332 89.9%
	// 64 96  48  144 8192    393216 88.9%
	// average router hops at N ~ 2000:
	// SF    N=2178 hops=1.922 D=2
	// DF    N=2550 hops=2.751 D=3
	// FT-3  N=2197 hops=3.836 D=4
	// FBF-3 N=2401 hops=2.572 D=3
	// T3D   N=2028 hops=9.466 D=18
	// T5D   N=2000 hops=5.603 D=10
	// HC    N=2048 hops=5.503 D=11
	// LH-HC N=2048 hops=3.913 D=5
	// DLN   N=2000 hops=2.738 D=4
	// ## Figure 5b: Moore bound comparison, diameter 3
	// k'  moore_bound  topology  routers  fraction
	// --  -----------  --------  -------  --------
	// 3   22           FBF-3     8        36.4%
	// 5   106          DF        36       34.0%
	// 6   187          SF-BDF    52       27.8%
	// 6   187          FBF-3     27       14.4%
	// 8   457          DF        114      24.9%
	// 9   658          SF-DEL    225      34.2%
	// 9   658          SF-BDF    186      28.3%
	// 9   658          FBF-3     64       9.7%
	// 11  1222         DF        264      21.6%
	// 12  1597         SF-BDF    456      28.6%
	// 12  1597         FBF-3     125      7.8%
	// 14  2563         DF        510      19.9%
	// 15  3166         SF-BDF    910      28.7%
	// 15  3166         FBF-3     216      6.8%
	// 16  3857         SF-DEL    1600     41.5%
	// 17  4642         DF        876      18.9%
	// 18  5527         SF-BDF    1596     28.9%
	// 18  5527         FBF-3     343      6.2%
	// 20  7621         DF        1386     18.2%
	// 21  8842         SF-BDF    2562     29.0%
	// 21  8842         FBF-3     512      5.8%
	// 23  11662        DF        2064     17.7%
	// 24  13273        FBF-3     729      5.5%
	// 25  15026        SF-DEL    7225     48.1%
	// 26  16927        DF        2934     17.3%
	// 27  18982        SF-BDF    5526     29.1%
	// 27  18982        FBF-3     1000     5.3%
	// 29  23578        DF        4020     17.0%
	// 30  26131        SF-BDF    7620     29.2%
	// 30  26131        FBF-3     1331     5.1%
	// 32  31777        DF        5346     16.8%
	// 33  34882        FBF-3     1728     5.0%
	// 35  41686        DF        6936     16.6%
	// 36  45397        SF-DEL    24336    53.6%
	// 36  45397        SF-BDF    13272    29.2%
	// 36  45397        FBF-3     2197     4.8%
	// 38  53467        DF        8814     16.5%
	// 39  57838        SF-BDF    16926    29.3%
	// 39  57838        FBF-3     2744     4.7%
}
