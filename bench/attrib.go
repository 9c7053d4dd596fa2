package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// layers are the CPU-share buckets of the traced pass: the repository's
// packages that do the simulation's work, "other" for the rest of the
// module (the benchmark included), and "go.background" for runtime work no
// module frame caused (GC workers, idle scheduler loops).
var layers = []string{
	"sim", "fabric", "verbs", "gm", "elan", "mpi", "bus", "memreg", "shmem",
	"faults", "msgtrace", "metrics", "apps", "other", "go.background",
}

const internalPrefix = "mpinet/internal/"

// layerOf charges a sample to the package of its innermost
// mpinet/internal frame, so runtime work a layer causes (channel handoff,
// mallocgc) counts against that layer. frames run from the leaf to the root.
func layerOf(frames []string) string {
	module := false
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			pkg := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				pkg = rest[:i]
			}
			for _, l := range layers {
				if l == pkg {
					return pkg
				}
			}
			return "other"
		}
		if strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "mpinet.") {
			module = true
		}
	}
	if module {
		return "other"
	}
	return "go.background"
}

// profileLayers runs `go tool pprof -traces` on a CPU profile and returns
// the seconds charged to each layer.
func profileLayers(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(bytes.NewReader(out))
}

// parseTraces reads `pprof -traces` output: records separated by dashed
// lines, each a sample value beside its leaf frame followed by one caller
// per line, formatted "%10s   %s".
func parseTraces(r io.Reader) (map[string]float64, error) {
	byLayer := make(map[string]float64)
	var frames []string
	var value float64
	flush := func() {
		if len(frames) > 0 {
			byLayer[layerOf(frames)] += value
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inRecords := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inRecords = true
			continue
		}
		if !inRecords || len(line) < 14 || line[10:13] != "   " {
			continue // header, or a sample label line ("%10s:  %s")
		}
		if v := strings.TrimSpace(line[:10]); v != "" {
			flush()
			d, err := parseSeconds(v)
			if err != nil {
				return nil, err
			}
			value = d
		}
		frames = append(frames, strings.TrimSuffix(line[13:], " (inline)"))
	}
	flush()
	return byLayer, sc.Err()
}

// parseSeconds reads a pprof time value such as "10ms" or "1.20s".
func parseSeconds(v string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{
		{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1},
	}
	if v == "0" {
		return 0, nil
	}
	for _, u := range units {
		if num, ok := strings.CutSuffix(v, u.suffix); ok {
			f, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("pprof value %q: %w", v, err)
			}
			return f * u.scale, nil
		}
	}
	return 0, fmt.Errorf("pprof value %q: unknown unit", v)
}
