# The rows of BENCH_HISTORY.md for one label, from an untraced and a
# traced `benchmark set` file:
#
#   jq -r --slurp --arg tag LABEL -f scripts/history.jq UNTRACED.json TRACED.json
#
# Line 1 is the per-layer row; then one end-to-end row per workload.
# Each per-layer number is read from the traced run of the workload that
# exercises that layer (elsewhere it reads 0).

def dp(n): . * pow(10; n) | round / pow(10; n);

.[0] as $u | .[1] as $t
| def layer(workload; metric): $t.workloads[workload].result.metrics[metric].value;
  "| \($tag) | \($t.git_commit[0:7]) | \($t.hardware_threads)"
  + " | \(layer("sim_big"; "pfs.run.ns_per_event") | dp(1))"
  + " | \(layer("sim_big_sharded"; "pfs.parsim.one_thread_cost") | dp(3))"
  + " | \(layer("sim_big_sharded"; "pfs.parsim.speedup") | dp(3))"
  + " | \(layer("paper_grid"; "rayon.join_us") | dp(1))"
  + " | \(layer("paper_grid"; "core.generate.pool_efficiency") | dp(3))"
  + " | \(layer("paper_grid"; "monitor.ns_per_record") | dp(1))"
  + " | \(layer("serve_stream"; "serve.workers2.speedup") | dp(3))"
  + " | \(layer("paper_grid"; "control.tick_us_per_window") | dp(2))"
  + " | \(layer("paper_grid"; "ml.f1_binary") | dp(4)) |",
  ( $u.workloads | to_entries[] | .value.result.metrics as $m
    | "| \($tag) | \($u.git_commit[0:7]) | \($u.hardware_threads) | \(.key)"
      + " | \(.value.stamp.host_speed | dp(3))"
      + " | \($m.setup_s.value | dp(4)) | \($m.pass_ms.value | dp(1))"
      + " | \($m.work_per_s.value | dp(1)) | \($m.peak_heap_mb.value | dp(2))"
      + " | \(.value.stamp.digest) |" )
