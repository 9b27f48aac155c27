package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strconv"
	"testing"

	"slimfly/internal/scenario"
)

// microScale keeps the simulator-backed runners fast enough for go test.
func microScale() PerfScale {
	return PerfScale{
		TargetN: 220, Warmup: 200, Measure: 600, Drain: 3000,
		Loads: []float64{0.2, 0.6},
	}
}

func TestFig6UniformMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	tb, err := Fig6(context.Background(), "uniform", microScale(), 21)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 12 { // 6 protocols x 2 loads
		t.Fatalf("rows = %d, want 12", len(tb.Rows))
	}
	lat := map[string]float64{}
	for _, r := range tb.Rows {
		if r[1] == "0.200" {
			v, err := strconv.ParseFloat(r[2], 64)
			if err != nil {
				t.Fatal(err)
			}
			lat[r[0]] = v
		}
	}
	// Figure 6a's low-load ordering: SF-MIN below SF-VAL and below
	// FT-ANCA (the diameter-2 advantage).
	if lat["SF-MIN"] >= lat["SF-VAL"] {
		t.Errorf("SF-MIN latency %v >= SF-VAL %v at low load", lat["SF-MIN"], lat["SF-VAL"])
	}
	if lat["SF-MIN"] >= lat["FT-ANCA"] {
		t.Errorf("SF-MIN latency %v >= FT-ANCA %v at low load", lat["SF-MIN"], lat["FT-ANCA"])
	}
}

func TestFig6WorstCaseMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	tb, err := Fig6(context.Background(), "worstcase", microScale(), 22)
	if err != nil {
		t.Fatal(err)
	}
	acc := map[string]float64{}
	for _, r := range tb.Rows {
		if r[1] == "0.600" {
			v, err := strconv.ParseFloat(r[3], 64)
			if err != nil {
				t.Fatal(err)
			}
			acc[r[0]] = v
		}
	}
	// Figure 6d: adversarial traffic collapses SF-MIN far below the
	// adaptive protocols.
	if acc["SF-MIN"] >= acc["SF-UGAL-G"] {
		t.Errorf("SF-MIN accepted %v >= SF-UGAL-G %v on worst case", acc["SF-MIN"], acc["SF-UGAL-G"])
	}
	if acc["SF-MIN"] >= acc["SF-VAL"] {
		t.Errorf("SF-MIN accepted %v >= SF-VAL %v on worst case", acc["SF-MIN"], acc["SF-VAL"])
	}
}

func TestFig8aMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	tb, err := Fig8a(context.Background(), microScale(), 23)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 36 { // 6 buffer sizes x 6 loads
		t.Fatalf("rows = %d, want 36", len(tb.Rows))
	}
}

func TestFig8beMicro(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	tb, err := Fig8be(context.Background(), microScale(), 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) == 0 {
		t.Fatal("empty table")
	}
	// Two oversubscribed variants, two patterns, four protocols each.
	if len(tb.Rows) != 2*(4*4+4*5) {
		t.Logf("rows = %d (load grids may change); sanity only", len(tb.Rows))
	}
}

// TestFigureTablesPinned pins the printed micro-scale tables of the
// simulator-backed figures by hash: the engine is deterministic at every
// worker count, so any drift is a change to what the figures report.
func TestFigureTablesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed; skipped in -short")
	}
	for _, c := range []struct {
		name, want string
		table      func(context.Context) (*Table, error)
	}{
		{"fig6-uniform-21", "30a60d4fa51fda37cf2efd9e89cdc2f986426747e1ced920fc0d7bf3d497f60a", func(ctx context.Context) (*Table, error) { return Fig6(ctx, "uniform", microScale(), 21) }},
		{"fig6-worstcase-22", "7f7f7d77d512f6b71659b73d08cb3c4f58cb51a1c3da8cbfc57e918e15689c7c", func(ctx context.Context) (*Table, error) { return Fig6(ctx, "worstcase", microScale(), 22) }},
		{"fig8a-23", "b752055185fcc0f61f8f913264061430a7bc0b98f1603b3b23d6d0271d5df4a9", func(ctx context.Context) (*Table, error) { return Fig8a(ctx, microScale(), 23) }},
		{"fig8be-24", "ecf5d99e826a64fb4c7911841dac6449016f407bdbec1000ab664f3cf5bcd0d9", func(ctx context.Context) (*Table, error) { return Fig8be(ctx, microScale(), 24) }},
	} {
		tb, err := c.table(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := sha256.Sum256([]byte(tb.String()))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: table hash %s, want %s", c.name, got, c.want)
		}
	}
}

// TestFig6UnknownPattern: an unregistered pattern is the registry's
// error, not a table of some other traffic labelled with the bad name.
func TestFig6UnknownPattern(t *testing.T) {
	tb, err := Fig6(context.Background(), "nosuch", microScale(), 1)
	var unknown *scenario.UnknownError
	if !errors.As(err, &unknown) || tb != nil {
		t.Fatalf("Fig6(nosuch) = %v, %v; want nil table and *scenario.UnknownError", tb, err)
	}
}

// TestFig8aCancelled: cancellation is an ordinary error return.
func TestFig8aCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tb, err := Fig8a(ctx, microScale(), 23)
	if !errors.Is(err, context.Canceled) || tb != nil {
		t.Fatalf("Fig8a(cancelled ctx) = %v, %v; want nil table and context.Canceled", tb, err)
	}
}
