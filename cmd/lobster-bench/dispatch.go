package main

import (
	"fmt"

	"lobster/internal/wq"
)

// runDispatch exercises the dispatch plane at paper scale instead of the
// evaluation figures: the sim plane holds the full 100k-worker / 1M-task
// target (the fleet the paper ramps toward in figures 5 and 6) through
// one master's real one-lock task table, and the loopback plane pushes the
// same wire protocol through real TCP workers, where file descriptors
// bound the fleet.
func runDispatch(scale float64) error {
	simWorkers := atLeast(int(100_000*scale), 1000)
	simTasks := atLeast(int(1_000_000*scale), 10_000)
	fmt.Printf("== Dispatch plane: sim (%d workers × 8 cores, %d tasks) ==\n", simWorkers, simTasks)
	fmt.Println(wq.RunScaleSim(wq.ScaleConfig{Workers: simWorkers, Tasks: simTasks}))

	loWorkers := 64
	loTasks := atLeast(int(20_000*scale), 2000)
	fmt.Printf("\n== Dispatch plane: loopback TCP (%d workers × 8 cores, %d tasks) ==\n", loWorkers, loTasks)
	rep, err := wq.RunScaleLoopback(loWorkers, 8, loTasks, false)
	if err != nil {
		return err
	}
	fmt.Println(rep)
	return nil
}

func atLeast(v, floor int) int {
	if v < floor {
		return floor
	}
	return v
}
