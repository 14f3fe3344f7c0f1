package main

// Per-layer metrics of the traced run. A layer is a module of the
// repository; its metrics come from spans the benchmark records around
// calls into that layer's public functions — from the workload's own traced
// rounds where the layer is on the workload's path, and from probes that
// call each layer directly on the workload's flow otherwise. A layer the
// workload never enters (the server on an engine workload, the stream
// session anywhere but stream-windows) reports 0.

import (
	"bytes"
	"io"
	"time"

	"rio"
	"rio/internal/core"
	"rio/internal/server/ingest"
	"rio/internal/stf"
)

var perLayer = []metricDef{
	{"ingest.parse_us", "us"},
	{"ingest.parse_ns_per_byte", "ns"},
	{"ingest.hash_us", "us"},
	{"ingest.body_bytes_per_task", "count"},
	{"analyze.preflight_us", "us"},
	{"stf.read_json_us", "us"},
	{"stf.write_json_us", "us"},
	{"stf.compile_us", "us"},
	{"stf.compile_ns_per_task", "ns"},
	{"stf.instr_per_task", "count"},
	{"stf.steal_meta_us", "us"},
	{"stf.window_fingerprint_us", "us"},
	{"verify.certify_us", "us"},
	{"sched.relevant_us", "us"},
	{"core.compiled_noop_ns_per_task", "ns"},
	{"core.closure_noop_ns_per_task", "ns"},
	{"core.armed_noop_ns_per_task", "ns"},
	{"core.run_fixed_us", "us"},
	{"core.session_barrier_us", "us"},
	{"core.e_p", "ratio"},
	{"core.e_r", "ratio"},
	{"core.wait_share", "ratio"},
	{"core.steal_success_ratio", "ratio"},
	{"core.stolen_share", "ratio"},
	{"rio.cache_hit_ratio", "ratio"},
	{"rio.shape_hit_ratio", "ratio"},
	{"rio.stream_record_ns_per_task", "ns"},
	{"rio.stream_flush_us", "us"},
	{"server.run_us", "us"},
	{"server.queue_us", "us"},
	{"server.http_overhead_us", "us"},
	{"server.submit_us", "us"},
	{"server.resubmit_us", "us"},
	{"server.shadow_sum_us", "us"},
	{"server.req_p99_us", "us"},
	{"server.refused_ratio", "ratio"},
	{"server.gen_late_p90_us", "us"},
	{"sequential.ns_per_task", "ns"},
	{"centralized.ns_per_task", "ns"},
	{"kernels.spin_ns_per_iter", "ns"},
	{"proc.alloc_b_per_op", "B"},
	{"proc.allocs_per_op", "count"},
	{"proc.gc_pause_us_per_s", "us/s"},
	{"proc.trace_overhead_ratio", "ratio"},
	{"proc.op_tail_us", "us"},
	{"proc.op_tail_pct", "%"},
	{"proc.op_samples", "count"},
}

// probe times f up to reps times (stopping early once 300 ms are spent),
// records one span per call and returns the median in µs. An error aborts
// the probe and reports 0.
func probe(tr *tracer, reps int, name string, f func() error) float64 {
	var times []float64
	begin := time.Now()
	for i := 0; i < reps && (i == 0 || time.Since(begin) < 300*time.Millisecond); i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0
		}
		end := time.Now()
		tr.add(name, 0, -1, start, end)
		times = append(times, micros(end.Sub(start)))
	}
	return median(times)
}

// layerMetrics derives every per-layer metric of st's workload: from the
// rounds already run, from one accounted run, and from the layer probes.
func (r *runner) layerMetrics(st *state) map[string]float64 {
	inst, tr, c := st.inst, st.tr, &r.cfg
	flow, p, reps := inst.flow, c.workers, c.size.probeReps
	tasks := float64(len(flow.Tasks))
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0 // a layer the workload never enters
	}

	// Workload-side counts and spans.
	for k, v := range inst.counts() {
		m[k] = v
	}
	med := func(name string) float64 { return median(tr.samples[name]) }
	m["server.run_us"] = med("server.run")
	m["server.queue_us"] = med("server.queue")
	m["server.http_overhead_us"] = med("server.http_overhead")
	m["server.submit_us"] = med("server.submit")
	m["server.resubmit_us"] = med("server.resubmit")
	m["server.shadow_sum_us"] = med("server.shadow_sum")
	m["server.gen_late_p90_us"] = percentile(tr.samples["gen.late"], 90)
	m["server.refused_ratio"] = ratio(float64(tr.counts["server.refused"]), float64(tr.counts["server.closed_loop_requests"]))
	m["rio.stream_record_ns_per_task"] = med("stream.record") * 1e3 / tasks
	m["rio.stream_flush_us"] = med("stream.flush")

	// Process-level numbers: untraced rounds give the baseline, traced
	// rounds the cost of tracing.
	var pooled, allocB, allocs, pause []float64
	var p50 [2][]float64
	for i := range st.rounds {
		rs := &st.rounds[i]
		if rs.traced {
			p50[1] = append(p50[1], rs.p50)
			continue
		}
		p50[0] = append(p50[0], rs.p50)
		pooled = append(pooled, rs.lat...)
		allocB = append(allocB, rs.allocBOp)
		allocs = append(allocs, rs.allocsOp)
		pause = append(pause, rs.gcPauseUsS)
	}
	m["proc.alloc_b_per_op"] = median(allocB)
	m["proc.allocs_per_op"] = median(allocs)
	m["proc.gc_pause_us_per_s"] = median(pause)
	m["proc.trace_overhead_ratio"] = ratio(median(p50[1]), median(p50[0]))
	m["proc.op_tail_us"], m["proc.op_tail_pct"] = tail(pooled)
	m["proc.op_samples"] = float64(len(pooled))
	if len(tr.samples["server.run"]) > 0 {
		m["server.req_p99_us"] = percentile(pooled, 99)
	}

	// One run of the timed path with accounting on: the §2.3 terms.
	opts := inst.opts
	opts.NoAccounting = false
	if eng, err := rio.NewEngine(opts); err == nil {
		if inst.closure {
			err = eng.Run(flow.NumData, replay(flow, inst.kernel))
		} else {
			err = eng.RunGraph(flow, inst.kernel)
		}
		if err == nil {
			stats, prog := eng.Stats(), eng.Progress()
			task, idle, _ := stats.Cumulative()
			total := float64(stats.TotalCumulative())
			m["core.e_p"] = ratio(float64(task), float64(task+idle))
			m["core.e_r"] = ratio(float64(task+idle), total)
			m["core.wait_share"] = ratio(float64(idle), total)
			m["core.steal_success_ratio"] = ratio(float64(prog.Stolen()), float64(prog.Stolen()+prog.StealFailed()))
			m["core.stolen_share"] = ratio(float64(prog.Stolen()), float64(prog.Executed()))
		}
	}

	// Layer probes: each layer's public calls, timed on this workload's flow.
	body := encodeFlow(flow, "")
	m["ingest.body_bytes_per_task"] = float64(len(body)) / tasks
	var sub *ingest.Submission
	m["ingest.parse_us"] = probe(tr, reps, "ingest.parse", func() (err error) {
		sub, err = ingest.Parse(bytes.NewReader(body), p)
		return err
	})
	m["ingest.parse_ns_per_byte"] = m["ingest.parse_us"] * 1e3 / float64(len(body))
	m["stf.read_json_us"] = probe(tr, reps, "stf.read_json", func() error {
		_, err := stf.ReadJSON(bytes.NewReader(body))
		return err
	})
	m["stf.write_json_us"] = probe(tr, reps, "stf.write_json", func() error { return flow.WriteJSON(io.Discard) })
	if sub != nil {
		m["ingest.hash_us"] = probe(tr, reps, "ingest.hash", func() error {
			_, err := ingest.Hash(sub.Graph, sub.MappingSpec)
			return err
		})
		m["analyze.preflight_us"] = probe(tr, reps, "analyze.preflight", func() error {
			// A rejected flow (the skewed mapping lints dirty) costs the same passes.
			ingest.Preflight(sub, rio.PreflightAccess|rio.PreflightMapping)
			return nil
		})
	}
	mapping := inst.opts.Mapping
	if mapping == nil {
		mapping = rio.CyclicMapping(p)
	}
	m["sched.relevant_us"] = probe(tr, reps, "sched.relevant", func() error {
		rio.RelevantTasks(flow, mapping, p)
		return nil
	})
	var cp *rio.CompiledProgram
	m["stf.compile_us"] = probe(tr, reps, "stf.compile", func() (err error) {
		cp, err = rio.Compile(flow, p, mapping, true)
		return err
	})
	m["stf.compile_ns_per_task"] = m["stf.compile_us"] * 1e3 / tasks
	if cp != nil {
		m["stf.instr_per_task"] = float64(cp.Ops()) / tasks
		m["stf.steal_meta_us"] = probe(tr, reps, "stf.steal_meta", func() error {
			stf.BuildStealMeta(cp)
			return nil
		})
		m["verify.certify_us"] = probe(tr, reps, "verify.certify", func() error {
			rio.Verify(flow, cp, mapping, nil)
			return nil
		})
	}
	win := stf.NewWindow(flow.NumData)
	for i := 0; i < len(flow.Tasks) && i < windowChains*windowDepth; i++ {
		t := &flow.Tasks[i]
		win.Add(nil, t.Kernel, t.I, t.J, t.K, t.Accesses) // accesses of a valid graph are valid
	}
	m["stf.window_fingerprint_us"] = probe(tr, 20*reps, "stf.window_fingerprint", func() error {
		win.Fingerprint()
		return nil
	})

	// core: the paper's t_r — replay cost per task with an empty body, under
	// the default cyclic mapping — for each replay path.
	if cyclic, err := rio.Compile(flow, p, nil, false); err == nil {
		for _, v := range []struct {
			metric, span string
			opts         core.Options
			closure      bool
		}{
			{"core.compiled_noop_ns_per_task", "core.run_compiled", core.Options{}, false},
			{"core.closure_noop_ns_per_task", "core.run", core.Options{}, true},
			{"core.armed_noop_ns_per_task", "core.run_armed", core.Options{Steal: &stf.StealPolicy{}}, false},
		} {
			v.opts.Workers, v.opts.NoAccounting = p, true
			eng, err := core.New(v.opts)
			if err != nil {
				continue
			}
			m[v.metric] = 1e3 / tasks * probe(tr, 2*reps, v.span, func() error {
				if v.closure {
					return eng.Run(flow.NumData, replay(flow, noopKernel))
				}
				return eng.RunCompiled(cyclic, noopKernel)
			})
		}
	}
	// Fixed cost of a run: goroutine fan-out and teardown around one task
	// per worker.
	fixed := chainFlow("fixed", p, p, 0)
	if fcp, err := rio.Compile(fixed, p, nil, false); err == nil {
		if eng, err := core.New(core.Options{Workers: p, NoAccounting: true}); err == nil {
			m["core.run_fixed_us"] = probe(tr, 40*reps, "core.run_fixed", func() error { return eng.RunCompiled(fcp, noopKernel) })
		}
	}
	// The epoch barrier: Flush of a one-task window on an idle session.
	if eng, err := rio.NewEngine(rio.Options{Workers: p, NoAccounting: true}); err == nil {
		if s, err := eng.Stream(1, rio.StreamOptions{MaxWindow: -1, Kernel: noopKernel}); err == nil {
			var times []float64
			for i := 0; i < 40*reps; i++ {
				s.Task(0, i, 0, 0, rio.RW(0))
				start := time.Now()
				err := s.Flush()
				end := time.Now()
				if err != nil {
					break
				}
				tr.add("core.session_barrier", 0, -1, start, end)
				times = append(times, micros(end.Sub(start)))
			}
			s.Close()
			m["core.session_barrier_us"] = median(times)
		}
	}
	// The centralized engine on the same flow and kernel: the Fig 6 crossover
	// context.
	// (sequential.ns_per_task is measured beside every round: see summarize.)
	prog := replay(flow, inst.kernel)
	if cen, err := rio.New(rio.Options{Model: rio.Centralized, Workers: max(p, 2), NoAccounting: true}); err == nil {
		m["centralized.ns_per_task"] = 1e3 / tasks * probe(tr, reps, "centralized.run", func() error { return cen.Run(flow.NumData, prog) })
	}
	return m
}
