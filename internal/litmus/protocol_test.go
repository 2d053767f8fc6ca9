package litmus

// Protocol-stream pin: every directed case runs on each of its systems with
// an observer attached, and the count and SHA-256 of the rendered text of
// the stream's protocol transitions in each (case, system) run are
// compared against a committed golden. A change that adds, drops, reorders
// or re-renders any protocol event — ACC or directory side — fails here
// and names the run.
//
// After a deliberate protocol change, regenerate with
//
//	go test ./internal/litmus -run TestProtocolGolden -update
//
// and review the diff.

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"fusion/internal/obs"
	"fusion/internal/systems"
)

var update = flag.Bool("update", false, "rewrite testdata/protocol.golden from the current simulator")

const protocolGolden = "testdata/protocol.golden"

// protocolText renders the protocol transitions of an event stream, one
// line each, and counts them.
type protocolText struct {
	strings.Builder
	n int
}

func (p *protocolText) Record(e obs.Event) {
	if e.Kind.Protocol() {
		p.n++
		fmt.Fprintln(p, e)
	}
}

func TestProtocolGolden(t *testing.T) {
	var got strings.Builder
	for _, c := range Cases() {
		for _, kind := range c.Systems {
			var text protocolText
			cfg := systems.DefaultConfig(kind)
			cfg.Observer = &text
			if c.Tune != nil {
				c.Tune(&cfg)
			}
			if _, err := systems.Run(c.Build(), cfg); err != nil {
				t.Fatalf("%s on %s: %v", c.Name, kind, err)
			}
			sum := sha256.Sum256([]byte(text.String()))
			fmt.Fprintf(&got, "%s/%s %d %s\n", c.Name, strings.ToLower(kind.String()),
				text.n, hex.EncodeToString(sum[:]))
		}
	}

	if *update {
		if err := os.WriteFile(protocolGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(protocolGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	want, have := strings.Split(string(wantBytes), "\n"), strings.Split(got.String(), "\n")
	if len(want) != len(have) {
		t.Fatalf("%s has %d lines, the run produced %d (regenerate with -update)",
			protocolGolden, len(want), len(have))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Errorf("protocol stream changed:\n  golden: %s\n  got:    %s", want[i], have[i])
		}
	}
}
