package exp

import (
	"fmt"
	"strings"
	"testing"

	"slimfly/internal/cost"
	"slimfly/internal/musttest"
	"slimfly/internal/roster"
)

func TestTableFormatting(t *testing.T) {
	tb := &Table{Title: "demo", Columns: []string{"a", "bb"}}
	tb.Add(1, 2.5)
	tb.Add("x", "y")
	s := tb.String()
	if !strings.Contains(s, "## demo") || !strings.Contains(s, "2.500") {
		t.Errorf("rendering broken:\n%s", s)
	}
	if len(tb.Rows) != 2 {
		t.Errorf("rows = %d", len(tb.Rows))
	}
}

func TestSortRowsNumeric(t *testing.T) {
	tb := &Table{Columns: []string{"v"}}
	tb.Add(30)
	tb.Add(4)
	tb.Add(17)
	tb.SortRowsNumeric(0)
	if tb.Rows[0][0] != "4" || tb.Rows[2][0] != "30" {
		t.Errorf("sorted rows: %v", tb.Rows)
	}
}

func TestAvgEndpointHopsSlimFly(t *testing.T) {
	sf := musttest.Must(roster.Near(roster.SF, 300, 1))
	h := AvgEndpointHops(sf)
	// Diameter-2 network: average in (1, 2).
	if h <= 1 || h >= 2 {
		t.Errorf("SF avg hops = %v, want in (1,2)", h)
	}
}

// TestFig1Ordering verifies the headline of Figure 1: at comparable sizes
// Slim Fly has the lowest average hop count of all compared topologies.
func TestFig1Ordering(t *testing.T) {
	sfHops := AvgEndpointHops(musttest.Must(roster.Near(roster.SF, 1000, 1)))
	for _, kind := range []roster.Kind{roster.DF, roster.FT3, roster.T3D, roster.HC, roster.DLN} {
		tp, err := roster.Near(kind, 1000, 1)
		if err != nil {
			t.Fatal(err)
		}
		h := AvgEndpointHops(tp)
		if h <= sfHops {
			t.Errorf("%s avg hops %v <= SF %v at N~1000; Figure 1 says SF lowest", kind, h, sfHops)
		}
	}
}

func TestFig1Table(t *testing.T) {
	tb := Fig1(200, 1500, 1)
	if len(tb.Rows) < 9 {
		t.Errorf("Fig1 rows = %d, want >= 9 (every topology at least once)", len(tb.Rows))
	}
}

func TestFig5a(t *testing.T) {
	tb := Fig5a(40)
	if len(tb.Rows) < 5 {
		t.Fatalf("Fig5a rows = %d", len(tb.Rows))
	}
	// First row is q=3: k'=5, MB=26, SF=18 (69%).
	if tb.Rows[0][0] != "5" || tb.Rows[0][1] != "26" || tb.Rows[0][2] != "18" {
		t.Errorf("Fig5a first row = %v", tb.Rows[0])
	}
}

func TestFig5b(t *testing.T) {
	tb := Fig5b(100)
	names := map[string]bool{}
	for _, r := range tb.Rows {
		names[r[2]] = true
	}
	for _, want := range []string{"SF-DEL", "SF-BDF", "DF", "FBF-3"} {
		if !names[want] {
			t.Errorf("Fig5b missing %s series", want)
		}
	}
}

func TestFig5c(t *testing.T) {
	tb := Fig5c(200, 1200, 2)
	if len(tb.Rows) < 9 {
		t.Fatalf("Fig5c rows = %d", len(tb.Rows))
	}
	// SF bisection should be a large fraction of full (paper: higher than
	// DF's N/4).
	for _, r := range tb.Rows {
		if r[0] == "SF" {
			var frac float64
			if _, err := sscan(r[4], &frac); err != nil {
				t.Fatal(err)
			}
			if frac < 0.3 {
				t.Errorf("SF bisection fraction %v < 0.3", frac)
			}
		}
	}
}

func TestTable2(t *testing.T) {
	tb := Table2(1000, 3)
	if len(tb.Rows) != 9 {
		t.Fatalf("Table2 rows = %d, want 9", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if r[0] == "SF" && r[3] != "2" {
			t.Errorf("SF measured diameter = %s, want 2", r[3])
		}
		if r[0] == "FT-3" && r[3] != "4" {
			t.Errorf("FT-3 measured diameter = %s, want 4", r[3])
		}
	}
}

func TestVCCounts(t *testing.T) {
	tb := VCCounts(4)
	if len(tb.Rows) < 10 {
		t.Fatalf("VCCounts rows = %d", len(tb.Rows))
	}
}

func TestCableAndRouterModels(t *testing.T) {
	if len(CableModels().Rows) != 15 {
		t.Error("cable model table wrong size")
	}
	if len(RouterModels().Rows) != 7 {
		t.Error("router model table wrong size")
	}
}

func TestTable4(t *testing.T) {
	tb := Table4(5)
	if len(tb.Rows) != 9 {
		t.Fatalf("Table4 rows = %d, want 9", len(tb.Rows))
	}
	// SF row: cheapest cost/node among high-radix rows (paper's headline).
	var sfCost float64
	costs := map[string]float64{}
	for _, r := range tb.Rows {
		var c float64
		if _, err := sscan(r[6], &c); err != nil {
			t.Fatal(err)
		}
		costs[r[0]] = c
		if r[0] == "SF" {
			sfCost = c
		}
	}
	for _, other := range []string{"DF", "FT-3", "FBF-3", "DLN", "T3D", "T5D", "HC", "LH-HC"} {
		if costs[other] <= sfCost {
			t.Errorf("Table IV: %s cost/node %v <= SF %v", other, costs[other], sfCost)
		}
	}
}

func TestCostPowerSweep(t *testing.T) {
	tb := CostPower(cost.FDR10(), 400, 2000, 6)
	if len(tb.Rows) < 9 {
		t.Fatalf("CostPower rows = %d", len(tb.Rows))
	}
}

func sscan(s string, v *float64) (int, error) {
	return fmtSscan(s, v)
}

func fmtSscan(s string, v *float64) (int, error) { return fmt.Sscanf(s, "%f", v) }
