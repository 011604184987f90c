// Command tracegen builds a workload and writes its per-core memory
// traces (including the RnR software-interface markers) in the binary
// trace format, one file per core, or prints the first records with
// -dump. Both write the expanded record stream, every iteration's
// kernel body in full, as the simulator reads it. The simulator builds
// its traces in memory and reads no trace files.
//
// Usage:
//
//	tracegen -workload pagerank -input amazon -scale test -out /tmp/pr
//	tracegen -workload spcg -input bbmat -dump -n 40
package main

import (
	"flag"
	"fmt"
	"os"

	"rnrsim/internal/apps"
	"rnrsim/internal/trace"
)

func main() {
	workload := flag.String("workload", "pagerank", "pagerank, hyperanf or spcg")
	input := flag.String("input", "urand", "input name (see DESIGN.md Table III)")
	scale := flag.String("scale", "test", "input scale: test, bench or large")
	out := flag.String("out", "", "output prefix; writes <prefix>.core<N>.rnrt")
	dump := flag.Bool("dump", false, "print the head of core 0's trace instead of writing")
	n := flag.Int("n", 20, "records to print with -dump")
	flag.Parse()

	sc, ok := apps.ParseScale(*scale)
	if !ok {
		fatal("unknown scale %q", *scale)
	}

	app, err := apps.Build(*workload, *input, sc)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "%s/%s: %d cores, %d records, %d instructions, input %.2f MB\n",
		app.Name, app.Input, app.Cores, app.Records(), app.Instructions(),
		float64(app.InputBytes)/(1<<20))

	if *dump {
		src := app.Traces[0].Source()
		for i := 0; i < *n; i++ {
			rec, ok := src.Next()
			if !ok {
				break
			}
			fmt.Println(rec)
		}
		return
	}
	if *out == "" {
		fatal("need -out or -dump")
	}
	for c, t := range app.Traces {
		recs := t.Records()
		name := fmt.Sprintf("%s.core%d.rnrt", *out, c)
		f, err := os.Create(name)
		if err != nil {
			fatal("%v", err)
		}
		if err := trace.Write(f, recs); err != nil {
			fatal("writing %s: %v", name, err)
		}
		if err := f.Close(); err != nil {
			fatal("closing %s: %v", name, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d records)\n", name, len(recs))
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(1)
}
