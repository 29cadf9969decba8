// Command kvsmoke runs one of the four service gates of `make ci` on
// every engine in -engines and exits non-zero when an engine fails it:
//
//	kvsmoke recover   kill/recover durability    (make smoke-recover,  DESIGN.md §12)
//	kvsmoke chaos     overload + network faults  (make smoke-chaos,    DESIGN.md §13)
//	kvsmoke coalesce  coalescing + change feeds  (make smoke-coalesce, DESIGN.md §14)
//	kvsmoke obs       /metrics and /statz        (make smoke-obs,      DESIGN.md §11)
//
// Each gate is one func(kind string) error in the file of its name, under
// the list of what it fails on; this file holds what they share. Flags
// follow the gate's name: kvsmoke chaos -engines swisstm,tl2 -duration 2s.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"swisstm/internal/harness"
)

var engines = flag.String("engines", strings.Join(harness.Kinds, ","), "comma-separated engine kinds to run the gate on")

var gates = map[string]func(kind string) error{
	"recover": recoverGate, "chaos": chaosGate, "coalesce": coalesceGate, "obs": obsGate,
}

func main() {
	if len(os.Args) < 2 || gates[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: kvsmoke <recover|chaos|coalesce|obs> [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	name, gate := os.Args[1], gates[os.Args[1]]
	flag.CommandLine.Parse(os.Args[2:])

	specs, err := harness.ParseKinds(*engines, "polka")
	if err != nil {
		fmt.Fprintf(os.Stderr, "kvsmoke %s: -engines: %v\n", name, err)
		os.Exit(2)
	}
	failures := 0
	for _, spec := range specs {
		if err := gate(spec.Kind); err != nil {
			fmt.Fprintf(os.Stderr, "kvsmoke %s: %s: FAIL: %v\n", name, spec.Kind, err)
			failures++
			continue
		}
		fmt.Printf("kvsmoke %s: %s OK\n", name, spec.Kind)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "kvsmoke %s: %d engine(s) failed\n", name, failures)
		os.Exit(1)
	}
	fmt.Printf("smoke-%s OK on every engine of %s\n", name, *engines)
}

// writer is one monotone writer's ledger, the acked-write oracle of the
// recover and chaos gates: it writes 1, 2, 3, … to a key of its own and
// notes the last value sent and the last acknowledged. Whatever happened
// to the server or the network meanwhile, the key must later hold a value
// in [acked, issued]: a write sent but never acknowledged may have landed,
// an acknowledged one may not be lost.
type writer struct {
	issued, acked uint64
}

// survived checks the writer's key as read back; a writer that was never
// acknowledged proves nothing either way.
func (w writer) survived(id int, v uint64, found bool) error {
	switch {
	case w.acked == 0:
		return nil
	case !found:
		return fmt.Errorf("writer %d: acked writes up to %d but the key is gone — ACKED WRITE LOST", id, w.acked)
	case v < w.acked || v > w.issued:
		return fmt.Errorf("writer %d: value %d outside [last acked %d, last issued %d] — ACKED WRITE LOST", id, v, w.acked, w.issued)
	}
	return nil
}

// httpGet fetches one page of a server's admin endpoint.
func httpGet(url string) (string, error) {
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(b), nil
}
