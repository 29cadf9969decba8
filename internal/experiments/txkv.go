// The txkv experiment family: the transactional key-value store under
// YCSB-style server traffic (DESIGN.md §6). Unlike the paper figures,
// this family is a forward-looking workload axis from the ROADMAP —
// skewed key popularity, mixed point/multi-key/scan transactions —
// run across all four engines like everything else in the pipeline.
package experiments

import (
	"fmt"

	"swisstm/internal/harness"
	"swisstm/internal/results"
	"swisstm/internal/txkv"
)

// kvZipf is the txkv zipfian skew θ of every zipfian point.
const kvZipf = 0.99

// txkvWorkloads assembles the measured (tag, generator-config) points:
// the three headline mixes plus read-only under zipfian popularity,
// and one uniform-popularity point to expose the skew axis.
func (o Options) txkvWorkloads() []struct {
	tag string
	cfg txkv.GenConfig
} {
	keys := o.KVKeys
	if keys == 0 {
		keys = 1024
	}
	type wl = struct {
		tag string
		cfg txkv.GenConfig
	}
	var wls []wl
	for _, mix := range txkv.Mixes {
		wls = append(wls, wl{
			tag: "txkv/" + mix.Name + "-zipf",
			cfg: txkv.GenConfig{Mix: mix, Keys: keys, Zipf: kvZipf},
		})
	}
	wls = append(wls, wl{
		tag: "txkv/" + txkv.ReadHeavy.Name + "-uniform",
		cfg: txkv.GenConfig{Mix: txkv.ReadHeavy, Keys: keys},
	})
	return wls
}

// TxKV — transactional KV store throughput: 4 engines × the YCSB-style
// mixes × thread sweep, with the balance and last-write oracles armed
// on every run.
func (o Options) TxKV() ([]results.Record, error) {
	// The line-up as an -engines list parses it, so these rows and
	// txkvload's wire rows name RSTM alike ("RSTM(polka)").
	specs, err := harness.ParseKinds("swisstm,tinystm,rstm,tl2", "polka")
	if err != nil {
		return nil, err
	}
	var all []results.Record
	for _, wl := range o.txkvWorkloads() {
		cfg := wl.cfg
		recs, err := o.throughputRecords("txkv", wl.tag, specs,
			func(seed uint64) harness.Workload { return txkv.NewGen(cfg).Workload() })
		all = append(all, recs...)
		if err != nil {
			return all, err
		}
		dist := "uniform"
		if cfg.Zipf > 0 {
			dist = fmt.Sprintf("zipfian θ=%.2f", cfg.Zipf)
		}
		o.emit(harness.FormatFigure(
			fmt.Sprintf("TxKV %s (%s, %d keys)", cfg.Mix.Name, dist, cfg.Keys),
			"throughput [tx/s]", o.Threads, medianSeries(recs, metricThroughput)))
	}
	return all, nil
}
