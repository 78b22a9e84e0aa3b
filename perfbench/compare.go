package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// readRecords collects the record lines of saved benchmark output.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), recordPrefix)
		if !ok {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no %q lines", path, strings.TrimSpace(recordPrefix))
	}
	return recs, nil
}

// compareFiles prints, for every workload and metric present in both
// files, each side's median and quartile spread and the change of the
// medians. Runs from different hosts are refused: their difference
// measures the hosts, not the code.
func compareFiles(w io.Writer, basePath, headPath string) error {
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return err
	}
	h := base[0].Host
	for _, r := range append(base, head...) {
		if r.Host != h {
			return fmt.Errorf("refusing to compare runs from different hosts: %+v and %+v", h, r.Host)
		}
	}
	type key struct{ workload, metric string }
	values := func(recs []record) map[key][]float64 {
		out := map[key][]float64{}
		for _, r := range recs {
			for name, v := range r.Result.Metrics {
				k := key{r.Workload, name}
				out[k] = append(out[k], v.Value)
			}
		}
		return out
	}
	bv, hv := values(base), values(head)
	var keys []key
	for k := range bv {
		if _, ok := hv[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-14s %-28s %14s %7s %14s %7s %8s\n", "workload", "metric", "base median", "spread", "head median", "spread", "change")
	for _, k := range keys {
		b, hd := bv[k], hv[k]
		_, bm, _ := quartiles(b)
		_, hm, _ := quartiles(hd)
		change := 0.0
		if bm != 0 {
			change = (hm - bm) / bm
		}
		fmt.Fprintf(w, "%-14s %-28s %14.6g %6.1f%% %14.6g %6.1f%% %+7.1f%%\n",
			k.workload, k.metric, bm, 100*relSpread(b), hm, 100*relSpread(hd), 100*change)
	}
	return nil
}
