package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runChild runs one workload end to end in a child process — one process per
// workload, so peak RSS and GOMAXPROCS belong to that workload alone — and
// returns the result object it printed last.
func runChild(workload string, seed int64, seconds float64, outDir string) (driverLine, error) {
	var line driverLine
	exe, err := os.Executable()
	if err != nil {
		return line, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0", "-out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return line, fmt.Errorf("%s: %w", workload, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	if err := json.Unmarshal(last, &line); err != nil {
		return line, fmt.Errorf("%s: last output line is not a result object: %w", workload, err)
	}
	return line, nil
}

// runSelfcheck is the A/A check: the gated end-to-end suite twice, nothing
// changed between the two but time, and every workload x metric pair's
// |a-b|/a held against the metric's bound. It returns the exit code.
func runSelfcheck(all []workload, seed int64, seconds float64, outDir string) int {
	ws := gated(all)
	var suites [2]map[string]driverLine
	for pass := range suites {
		suites[pass] = map[string]driverLine{}
		for _, w := range ws {
			fmt.Fprintf(os.Stderr, "selfcheck: pass %c, %s\n", 'A'+pass, w.Name)
			line, err := runChild(w.Name, seed, seconds, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !line.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed\n", w.Name, line.Failed, line.Attempted)
				return 1
			}
			suites[pass][w.Name] = line
		}
	}
	h := readHostInfo(seed)
	fmt.Printf("host: %s, nproc %d, %s, commit %s, seed %d, %s\n", h.CPUModel, h.NProc, h.GoVersion, h.Commit, h.Seed, h.Timestamp)
	fmt.Printf("| %-26s | %-11s | %12s | %12s | %8s | %5s | %-4s |\n", "workload", "metric", "A", "B", "|a-b|/a", "bound", "")
	fmt.Println("|---|---|---|---|---|---|---|")
	failed := 0
	for _, w := range ws {
		for _, d := range endToEnd {
			a, b := suites[0][w.Name].Metrics[d.Name].Value, suites[1][w.Name].Metrics[d.Name].Value
			diff := relDiff(a, b)
			verdict := "ok"
			if diff > d.Bound {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("| %-26s | %-11s | %12.6g | %12.6g | %7.2f%% | %4.0f%% | %-4s |\n", w.Name, d.Name, a, b, 100*diff, 100*d.Bound, verdict)
		}
	}
	if failed > 0 {
		fmt.Printf("selfcheck: %d pair(s) outside their bound\n", failed)
		return 1
	}
	fmt.Println("selfcheck: every pair within its bound")
	return 0
}
