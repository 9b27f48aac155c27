package sweep_test

import (
	"context"
	"fmt"
	"os"

	"slimfly/internal/export"
	"slimfly/internal/sweep"
)

// A small load-latency sweep over two Slim Flies, run twice against an
// on-disk cache: the second pass is served entirely from the cache and
// runs no simulator cycle. The curve is printed as CSV.
func ExampleRunJobs() {
	spec := &sweep.Spec{
		Name:     "example",
		Topos:    []sweep.TopoSpec{{Kind: "SF", Q: 5}, {Kind: "SF", Q: 7}},
		Algos:    []string{"min", "ugal-l"},
		Patterns: []string{"uniform"},
		Loads:    []float64{0.2, 0.5},
		Seeds:    []uint64{1},
		Sim:      sweep.SimParams{Warmup: 200, Measure: 400, Drain: 2000},
	}
	jobs, err := spec.Expand()
	if err != nil {
		panic(err)
	}
	dir, err := os.MkdirTemp("", "sweep-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	cache, err := sweep.OpenCache(dir)
	if err != nil {
		panic(err)
	}

	var results []sweep.JobResult
	for pass := 1; pass <= 2; pass++ {
		var st sweep.Stats
		results, st, err = sweep.RunJobs(context.Background(), jobs, sweep.NewEnv(), sweep.Options{Store: cache})
		if err != nil {
			panic(err)
		}
		fmt.Printf("pass %d: %d jobs, %d executed, %d cached\n", pass, st.Total, st.Executed, st.Cached)
	}
	if err := export.WriteSweepCSV(os.Stdout, results); err != nil {
		panic(err)
	}
	// Output:
	// pass 1: 8 jobs, 8 executed, 0 cached
	// pass 2: 8 jobs, 0 executed, 8 cached
	// topo,algo,pattern,load,seed,avg_latency,max_latency,avg_hops,accepted,injected,delivered,saturated,p50,p95,p99,max_chan_util,jain,cached,error,key
	// SF/q5,min,uniform,0.2,1,6.826,13,1.828,0.1998,15986,15986,false,,,,,,true,,40f565cea2d35914f3bc5ab4d48e1639e4c0de006b24aff59ac5fa60238f7712
	// SF/q5,min,uniform,0.5,1,8.367,27,1.827,0.4980,39842,39842,false,,,,,,true,,396584821c0056de0fa2e6aa5cce0d330ec2872a76a89f4b2ee7bc5d6d1c20f1
	// SF/q5,ugal-l,uniform,0.2,1,7.804,19,2.117,0.2029,16237,16237,false,,,,,,true,,27d98e3db1494c881b50692a006da7c71006cfe785b4e95fddbf7922ea6f57b7
	// SF/q5,ugal-l,uniform,0.5,1,10.990,45,2.218,0.5009,40044,40044,false,,,,,,true,,0bd7564b8c7343abe396cf0f17ef3833ba38f524f31e491d1cec9ea38fa13847
	// SF/q7,min,uniform,0.2,1,6.988,15,1.866,0.2000,47051,47051,false,,,,,,true,,3a1481b869f920a79f216755d5d35e33f8807dbbe9336de13676b4e432e8a304
	// SF/q7,min,uniform,0.5,1,9.207,48,1.871,0.5018,118079,118079,false,,,,,,true,,a07476f2f79ecebb17e72de09582686b5b6a10117410c7a739f37198004885c2
	// SF/q7,ugal-l,uniform,0.2,1,8.159,20,2.217,0.1991,46811,46811,false,,,,,,true,,ff99d0406eabb41ef694809241b964ca238e3d53be37fb4cebc6436619260c86
	// SF/q7,ugal-l,uniform,0.5,1,12.628,59,2.326,0.5015,117907,117907,false,,,,,,true,,8d6b7d249086c8c56d2dda0caa6d5a6d4d47b7db5119ad5197fdcb6c8a8320c7
}
