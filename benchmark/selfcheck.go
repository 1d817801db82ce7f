package main

import (
	"errors"
	"fmt"
	"time"
)

// selfcheck runs the whole end-to-end set twice back to back and fails
// if any median moved by more than its bound: the benchmark's own
// repeatability, measured with the rule later changes are held to.
func (e *env) selfcheck(con *contract, setups []float64, budget time.Duration) error {
	var sets [2]map[string]map[string]float64 // set → workload → metric → median
	ok := true
	for s := range sets {
		sets[s] = map[string]map[string]float64{}
		if s == 1 {
			// The second set pays its own set-up, so setup_s is compared too.
			var err error
			if setups, err = e.setUpTimes(setUpsPerRun); err != nil {
				return err
			}
		}
		for _, w := range workloads {
			m, err := e.measure(w, budget, false)
			if err != nil {
				return err
			}
			m.setups = setups
			fmt.Printf("\n-- set %d", s+1)
			if err := printMeasured(con, m); err != nil {
				return err
			}
			ok = ok && m.correct()
			sets[s][w.name] = endToEnd(con, m)
		}
	}
	fmt.Printf("\n== selfcheck: second set against the first\n")
	for _, w := range workloads {
		for _, d := range con.EndToEnd {
			a, b := sets[0][w.name][d.Name], sets[1][w.name][d.Name]
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "ok"
			if worse > *d.Bound {
				verdict, ok = "OUTSIDE BOUND", false
			}
			fmt.Printf("%-18s %-16s %14.4f %14.4f  %+6.1f%% worse (bound %.0f%%) %s\n",
				w.name, d.Name, a, b, worse*100, *d.Bound*100, verdict)
		}
	}
	if !ok {
		return errors.New("selfcheck failed")
	}
	return nil
}
