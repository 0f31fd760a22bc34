// Faulttolerance demonstrates FRIEDA's robustness story in both modes the
// repository implements:
//
//  1. The published behaviour — a failed worker is automatically isolated
//     (it receives no more data), its in-flight work is abandoned, and the
//     controller records the failure.
//  2. The paper's announced future work — recovery: lost work is requeued
//     onto surviving workers and the run completes in full.
//
// Both are shown on the virtual-time simulator with a scripted VM crash,
// then on the real runtime with a flaky program and task-level retries.
//
//	go run ./examples/faulttolerance
package main

import (
	"context"
	"fmt"
	"log"
	"sync"

	"frieda"
)

func main() {
	inputs := make([]frieda.FileMeta, 240)
	for i := range inputs {
		inputs[i] = frieda.FileMeta{Name: fmt.Sprintf("job-%05d", i), Size: 500_000}
	}
	job := frieda.SimConfig{
		Strategy:   frieda.RealTimeRemote,
		Dataset:    frieda.SizedDataset(inputs...),
		ComputeSec: 3.0,
		Workers:    3,
		FailAtSec:  map[int]float64{1: 20},
	}

	// A worker crashes 20 s in. Published behaviour: isolate.
	isolated, err := frieda.Simulate(job)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("isolation (paper):   %3d/%3d tasks completed, %.1fs\n",
		isolated.Succeeded, len(inputs), isolated.MakespanSec)

	// Future-work recovery: same crash, lost work requeued.
	job.Recover, job.MaxRetries = true, 3
	recovered, err := frieda.Simulate(job)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovery (extension): %3d/%3d tasks completed, %.1fs\n\n",
		recovered.Succeeded, len(inputs), recovered.MakespanSec)

	// Real runtime: a program that fails on first contact with each input
	// recovers through task-level retry.
	files := map[string][]byte{}
	for i := 0; i < 10; i++ {
		files[fmt.Sprintf("in%02d.dat", i)] = []byte("payload")
	}
	var mu sync.Mutex
	attempts := map[int]int{}
	flaky := frieda.FuncProgram(func(ctx context.Context, task frieda.Task) (string, error) {
		mu.Lock()
		attempts[task.GroupIndex]++
		n := attempts[task.GroupIndex]
		mu.Unlock()
		if n == 1 {
			return "", fmt.Errorf("transient fault on attempt 1")
		}
		return fmt.Sprintf("ok after %d attempts", n), nil
	})
	report, err := frieda.Run(context.Background(), frieda.RunConfig{
		Strategy:   frieda.RealTimeRemote,
		Dataset:    frieda.MemDataset(files),
		Program:    flaky,
		Workers:    2,
		Recover:    true,
		MaxRetries: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("real runtime with retries: %d/%d succeeded (every task failed once first)\n",
		report.Succeeded, report.Groups)
}
