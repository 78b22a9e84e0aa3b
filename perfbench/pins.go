package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"multicore/internal/experiments"
)

// pins.json holds the reference outputs the checks compare against,
// computed from a tree whose tables were known good. A change that is
// meant to alter the simulated results (a sim.ModelVersion bump)
// regenerates it with -pins and explains the difference.
//
//go:embed pins.json
var pinsJSON []byte

type pinSet struct {
	// Tables maps an experiment id to the SHA-256 of its rendered tables.
	Tables map[string]string `json:"tables"`
	// Screen maps the screen-grid window's first rank to the digest of
	// its screening decisions.
	Screen map[string]string `json:"screen"`
}

func loadPins() pinSet {
	var p pinSet
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic("perfbench: pins.json: " + err.Error()) // embedded at build time
	}
	return p
}

// pinnedExperiments are the experiments whose tables the paper-tables and
// scale-10k workloads check; table3 stands in for paper-tables in tiny
// runs.
var pinnedExperiments = []string{"table2", "table14", "table3", "ext-scale"}

// printPins recomputes every pinned reference from the current tree.
func printPins(w io.Writer) error {
	p := pinSet{Tables: map[string]string{}, Screen: map[string]string{}}
	for _, id := range pinnedExperiments {
		e, ok := experiments.ByID(id)
		if !ok {
			return fmt.Errorf("no experiment %q", id)
		}
		r := experiments.NewRunner(nil, experiments.Options{Parallelism: slots()})
		ts, err := r.Run(e, experiments.Quick)
		if err != nil {
			return err
		}
		p.Tables[id] = sha256Hex(renderTables(ts))
	}
	for lo := 1; lo <= screenWindows; lo++ {
		s := &screenGrid{lo: lo}
		var d time.Duration
		p.Screen[strconv.Itoa(lo)] = s.screen(&d).digest
	}
	out, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}
