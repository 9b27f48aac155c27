package moore

import "testing"

// MaxEndpoints returns the maximum number of endpoints N = p * Nr a
// diameter-d network of radix-k routers can reach when k' = ceil(2k/3)
// ports go to the network and the rest to endpoints (Section II-A).
func MaxEndpoints(k, d int) int64 {
	kp := (2*k + 2) / 3 // ceil(2k/3)
	p := k - kp
	if p < 0 {
		p = 0
	}
	return int64(p) * Bound(kp, d)
}

func TestBoundKnownValues(t *testing.T) {
	cases := []struct {
		kp, d int
		want  int64
	}{
		{7, 2, 50},    // Hoffman-Singleton meets the bound
		{3, 2, 10},    // Petersen graph
		{57, 2, 3250}, // hypothetical Moore graph
		{96, 2, 9217}, // the paper's Fig 5a annotation ("upper bound 9,217")
		{2, 3, 7},     // 7-ring
		{2, 2, 5},     // 5-ring
		{1, 5, 2},
		{0, 3, 1},
		{4, 0, 1},
		{3, 3, 22},
	}
	for _, c := range cases {
		if got := Bound(c.kp, c.d); got != c.want {
			t.Errorf("Bound(%d,%d) = %d, want %d", c.kp, c.d, got, c.want)
		}
	}
}

func TestBound2AndBound3(t *testing.T) {
	for kp := 3; kp <= 100; kp++ {
		if Bound2(kp) != int64(kp*kp+1) {
			t.Errorf("Bound2(%d) = %d", kp, Bound2(kp))
		}
		want := int64(1 + kp + kp*(kp-1) + kp*(kp-1)*(kp-1))
		if Bound3(kp) != want {
			t.Errorf("Bound3(%d) = %d, want %d", kp, Bound3(kp), want)
		}
	}
}

func TestFractionPaperAnnotations(t *testing.T) {
	// Fig 5a: SF MMS at k'=96 has 8192 routers, "only 12% worse than the
	// upper bound (9,217)" -> fraction ~0.888.
	f := Fraction(8192, 96, 2)
	if f < 0.88 || f > 0.90 {
		t.Errorf("SF fraction at k'=96: %v, want ~0.888", f)
	}
	if Fraction(10, 0, 0) != 10 {
		t.Errorf("fraction against bound 1 broken")
	}
}

func TestMaxEndpoints(t *testing.T) {
	// A 108-port director switch (k=108): k' = 72, p = 36; D=2 allows
	// ~36 * (72^2+1) = 186,660 endpoints ("nearly 200,000", Section II-A).
	got := MaxEndpoints(108, 2)
	if got != 36*(72*72+1) {
		t.Errorf("MaxEndpoints(108,2) = %d", got)
	}
	if got < 180000 || got > 200000 {
		t.Errorf("MaxEndpoints(108,2) = %d, want ~190K", got)
	}
}
