// Command bakeryreplay rebuilds the result tables of a recorded
// lock-service scenario run from its event log alone — no re-simulation,
// just the same aggregation the live run used over the recorded streams —
// and verifies they are bit-identical to the run that produced the log:
//
//	bakeryserve -scenario smoke -record run.scnlog   # or bakerybench -scenario ... -record
//	bakeryreplay run.scnlog
//
// The replayed fingerprint is compared against the one stored in the
// log's trailer; a mismatch (a truncated, tampered or version-skewed log)
// — or a file that is not a scenario log — exits nonzero. Because the recorded
// log itself is byte-identical for any worker count and GOMAXPROCS,
// record and replay can happen on different machines.
package main

import (
	"flag"
	"fmt"
	"os"

	"bakerypp/internal/scenario"
)

func main() {
	os.Exit(runMain())
}

func runMain() int {
	var (
		csv   = flag.Bool("csv", false, "emit the replayed tables as CSV")
		quiet = flag.Bool("q", false, "suppress the tables; print only the verdict line")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bakeryreplay [-csv] [-q] <file.scnlog>")
		return 2
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bakeryreplay:", err)
		return 1
	}
	defer f.Close()

	rep, err := scenario.ReplayLog(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bakeryreplay:", err)
		return 1
	}
	if !*quiet {
		for _, tb := range rep.Result.Tables() {
			if *csv {
				fmt.Print(tb.CSV())
			} else {
				fmt.Println(tb)
			}
		}
	}
	return verdict(rep.Fingerprint, rep.Recorded, rep.OK())
}

func verdict(replayed, recorded string, ok bool) int {
	fmt.Printf("fingerprint: %s\n", replayed)
	if !ok {
		fmt.Fprintf(os.Stderr, "bakeryreplay: REPLAY MISMATCH — recorded fingerprint %s, replayed %s\n",
			recorded, replayed)
		return 1
	}
	fmt.Println("replay OK: tables are bit-identical to the recorded run")
	return 0
}
