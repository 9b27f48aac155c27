package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"slimfly/internal/cost"
	"slimfly/internal/layout"
	"slimfly/internal/scenario"
)

// TestMain lets the test binary stand in for sfgen: re-executed with
// SFGEN_TEST_MAIN=1 it runs main() on its arguments, exit status included.
func TestMain(m *testing.M) {
	if os.Getenv("SFGEN_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func sfgen(t *testing.T, args ...string) (stdout string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SFGEN_TEST_MAIN=1")
	out, err := cmd.Output()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// TestCostLines: the default report prices the network with the chosen
// cable model, to the unit, after the structural lines.
func TestCostLines(t *testing.T) {
	tp, err := scenario.Topology(scenario.TopoSpec{Kind: "SF", Q: 5}.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		flag  string
		model cost.Model
	}{{"fdr10", cost.FDR10()}, {"sfp10g", cost.SFPPlus10G()}} {
		out, exit := sfgen(t, "-topo", "SF", "-q", "5", "-cables", c.flag)
		if exit != 0 {
			t.Fatalf("sfgen -cables %s: exit %d:\n%s", c.flag, exit, out)
		}
		b := c.model.Network(tp, layout.For(tp))
		for _, want := range []string{
			"measured: diameter=2 ",
			fmt.Sprintf("total cost:       $%.0f  ($%.0f per endpoint)\n", b.Total, b.CostPerNode),
			fmt.Sprintf("power:            %.0f W  (%.2f W per endpoint)\n", b.PowerWatts, b.PowerPerNode),
		} {
			if !strings.Contains(out, want) {
				t.Errorf("sfgen -cables %s: want %q in:\n%s", c.flag, want, out)
			}
		}
	}
}

// TestPaperNetworkPriced pins the Section VI block for the paper's
// ~10K-endpoint Slim Fly, to the unit.
func TestPaperNetworkPriced(t *testing.T) {
	out, exit := sfgen(t, "-topo", "SF", "-n", "10830")
	want := `racks:            19
electric cables:  14801 (incl. 10830 endpoint uplinks)
fiber cables:     6498
router cost:      $10487267
cable cost:       $1414309
total cost:       $11901576  ($1099 per endpoint)
power:            88950 W  (8.21 W per endpoint)
`
	if exit != 0 || !strings.HasSuffix(out, want) {
		t.Errorf("sfgen -topo SF -n 10830: exit %d, want suffix\n%s\ngot:\n%s", exit, want, out)
	}
}

func TestUnknownCablesExit2(t *testing.T) {
	if out, exit := sfgen(t, "-cables", "bogus"); exit != 2 {
		t.Errorf("sfgen -cables bogus: exit %d, output:\n%s", exit, out)
	}
}

func TestList(t *testing.T) {
	if out, exit := sfgen(t, "-list"); exit != 0 || out != scenario.ListText() {
		t.Errorf("sfgen -list: exit %d, output:\n%s\nwant:\n%s", exit, out, scenario.ListText())
	}
}
