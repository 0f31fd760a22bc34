package frieda_test

import (
	"fmt"
	"log"

	"frieda"
)

// Strategy exploration on the virtual-time testbed: a thousand 7 MB inputs,
// two seconds of compute each, pre-partitioned over four VMs, one of which
// crashes 40 s in. Without Recover its partition is abandoned.
func ExampleSimulate() {
	files := make([]frieda.FileMeta, 1000)
	for i := range files {
		files[i] = frieda.FileMeta{Name: fmt.Sprintf("job-%05d", i), Size: 7e6}
	}
	res, err := frieda.Simulate(frieda.SimConfig{
		Strategy:   frieda.PrePartitionedRemote,
		Dataset:    frieda.SizedDataset(files...), // sizes only: nothing to read
		ComputeSec: 2.0,                           // per group, on one core
		Workers:    4,
		FailAtSec:  map[int]float64{1: 40}, // scripted VM crash
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.3f s: %d succeeded, %d abandoned\n", res.MakespanSec, res.Succeeded, res.Abandoned)
	// Output: 566.457 s: 750 succeeded, 250 abandoned
}
