(* Service metrics as named instruments in one Obs.Metrics registry.

   Every event is a counter (labelled where a table has rows: per
   bucket, version, SLO, trigger or device), every latency series a
   log-bucketed histogram family, every maximum a gauge. Memory is
   bounded by the number of distinct label values, not by the number of
   requests. The Prometheus exposition and the JSON dump are the
   registry's generic renderers; only the human text report keeps a
   layout of its own, and it reads the registry too.

   The series every exposition carries (cache, fault, SDC and overload
   totals, the five latency stages) are registered up front; the rest
   appear on first use, which keeps the fleet, monitoring and kernel
   families absent until they fire. *)

module M = Obs.Metrics

type series = {
  count : int;
  mean : float;
  p50 : float;
  p95 : float;
  max : float;
}

type t = {
  reg : M.t;
  plan : M.histogram;
  tune : M.histogram;
  run : M.histogram;
  verify : M.histogram;
  queue_wait : M.histogram;
}

let always =
  [
    "tangram_cache_hits_total"; "tangram_cache_misses_total";
    "tangram_cache_evictions_total"; "tangram_batches_total";
    "tangram_coalesced_requests_total"; "tangram_retries_total";
    "tangram_faults_total"; "tangram_quarantines_total";
    "tangram_fallback_serves_total"; "tangram_degraded_serves_total";
    "tangram_bad_requests_total"; "tangram_backoff_simulated_us_total";
    "tangram_sdc_checks_total"; "tangram_sdc_catches_total";
    "tangram_sdc_reexecs_total"; "tangram_sdc_false_alarms_total";
    "tangram_deadline_expiries_total";
    "tangram_deadline_witness_serves_total";
    "tangram_brownout_transitions_total";
  ]

let class_label interactive =
  [ ("class", if interactive then "interactive" else "batch") ]

let create () : t =
  let reg = M.create () in
  List.iter (fun name -> ignore (M.counter reg name)) always;
  List.iter
    (fun interactive ->
      let labels = class_label interactive in
      ignore (M.counter reg ~labels "tangram_admitted_total");
      ignore (M.counter reg ~labels "tangram_shed_total"))
    [ true; false ];
  ignore (M.gauge reg "tangram_brownout_max_level");
  let stage s =
    M.histogram reg ~labels:[ ("stage", s) ] "tangram_latency_us"
  in
  {
    reg;
    plan = stage "plan";
    tune = stage "tune";
    run = stage "run";
    verify = stage "verify";
    queue_wait = stage "queue_wait";
  }

let registry t = t.reg

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let bump ?labels ?by (t : t) (name : string) : unit =
  M.inc ?by (M.counter t.reg ?labels name)

let raise_to (g : M.gauge) (v : float) : unit =
  M.set g (Float.max (M.gauge_value g) v)

let lookup t ~bucket ~result =
  bump t
    ~labels:[ ("bucket", bucket); ("result", result) ]
    "tangram_bucket_lookups_total"

let hit t ~bucket =
  bump t "tangram_cache_hits_total";
  lookup t ~bucket ~result:"hit"

let miss t ~bucket =
  bump t "tangram_cache_misses_total";
  lookup t ~bucket ~result:"miss"

let eviction t = bump t "tangram_cache_evictions_total"

let winner t version =
  bump t ~labels:[ ("version", version) ] "tangram_requests_served_total"

let plan_us t x = M.observe t.plan x
let tune_us t x = M.observe t.tune x
let run_us t x = M.observe t.run x

let batch t ~size:_ ~coalesced =
  bump t "tangram_batches_total";
  bump t ~by:(float_of_int coalesced) "tangram_coalesced_requests_total"

let retry t = bump t "tangram_retries_total"

let fault t ~version =
  bump t "tangram_faults_total";
  bump t ~labels:[ ("version", version) ] "tangram_version_faults_total"

let quarantine t = bump t "tangram_quarantines_total"
let fallback t = bump t "tangram_fallback_serves_total"
let degrade t = bump t "tangram_degraded_serves_total"
let bad_request t = bump t "tangram_bad_requests_total"
let backoff_us t x = bump t ~by:x "tangram_backoff_simulated_us_total"
let sdc_check t = bump t "tangram_sdc_checks_total"
let sdc_catch t = bump t "tangram_sdc_catches_total"
let sdc_false_alarm t = bump t "tangram_sdc_false_alarms_total"
let sdc_reexec t = bump t "tangram_sdc_reexecs_total"
let verify_us t x = M.observe t.verify x

let admit t ~interactive =
  bump t ~labels:(class_label interactive) "tangram_admitted_total"

let shed_request t ~interactive =
  bump t ~labels:(class_label interactive) "tangram_shed_total"

let deadline_expire t = bump t "tangram_deadline_expiries_total"

let deadline_witness_serve t =
  bump t "tangram_deadline_witness_serves_total"

let brownout_transition t ~level =
  bump t "tangram_brownout_transitions_total";
  raise_to (M.gauge t.reg "tangram_brownout_max_level") (float_of_int level)

let brownout_shed t ~what =
  bump t ~labels:[ ("work", what) ] "tangram_brownout_shed_total"

let queue_wait_us t x = M.observe t.queue_wait x
let device d = [ ("device", d) ]

let fleet_dispatch t ~device:d =
  bump t "tangram_fleet_dispatches_total";
  bump t ~labels:(device d) "tangram_fleet_device_dispatches_total"

let fleet_health t ~device:d h =
  M.set (M.gauge t.reg ~labels:(device d) "tangram_fleet_device_health") h

(* the lifecycle state is an enum gauge: 1 on the current state's
   series, 0 on the device's earlier ones *)
let fleet_state t ~device:d state =
  let name = "tangram_fleet_device_state" in
  List.iter
    (fun (labels, _) ->
      if List.assoc "device" labels = d then
        M.set (M.gauge t.reg ~labels name) 0.0)
    (M.series t.reg name);
  M.set (M.gauge t.reg ~labels:[ ("device", d); ("state", state) ] name) 1.0

let fleet_eject t ~device:d =
  bump t ~labels:(device d) "tangram_fleet_ejections_total"

let fleet_readmit t ~device:d =
  bump t ~labels:(device d) "tangram_fleet_readmissions_total"

let fleet_dead t ~device:d =
  bump t ~labels:(device d) "tangram_fleet_dead_total"

let fleet_drain t ~device:d =
  bump t ~labels:(device d) "tangram_fleet_drains_total"

let fleet_promote t ~device:d =
  bump t ~labels:(device d) "tangram_fleet_promotions_total"

let fleet_reroute t = bump t "tangram_fleet_reroutes_total"
let hedges outcome = [ ("outcome", outcome) ]

let fleet_hedge_fired t =
  bump t ~labels:(hedges "fired") "tangram_fleet_hedges_total"

let fleet_hedge_won t ~device:d =
  bump t ~labels:(hedges "won") "tangram_fleet_hedges_total";
  bump t ~labels:(device d) "tangram_fleet_device_hedge_wins_total"

let alert t ~slo = bump t ~labels:[ ("slo", slo) ] "tangram_slo_alerts_total"

let incident t ~kind =
  bump t ~labels:[ ("trigger", kind) ] "tangram_incidents_total"

(* every totals field but max_heat sums into a labelled counter; the
   heat is a maximum, so it is a gauge combined with Float.max exactly
   as Events.add_totals does *)
let kernel t ~arch ~version (totals : Gpusim.Events.totals) : unit =
  let labels = [ ("arch", arch); ("version", version) ] in
  bump t ~labels "tangram_kernel_requests_total";
  List.iter
    (fun (name, v) ->
      if name = "max_heat" then
        raise_to (M.gauge t.reg ~labels "tangram_kernel_max_heat") v
      else
        bump t ~by:v
          ~labels:[ ("arch", arch); ("counter", name); ("version", version) ]
          "tangram_kernel_counter_total")
    (Gpusim.Events.totals_fields totals)

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let count ?labels t name = int_of_float (M.value t.reg ?labels name)

(* the sum over every series of a family *)
let total t name =
  List.fold_left
    (fun acc (_, v) -> acc + int_of_float v)
    0 (M.series t.reg name)

(* one label's values with their counts, in label order *)
let by_label t name label =
  List.map
    (fun (ls, v) -> (List.assoc label ls, int_of_float v))
    (M.series t.reg name)

(* ... most-counted first *)
let ranked t name label =
  List.sort
    (fun (ka, a) (kb, b) -> compare (b, ka) (a, kb))
    (by_label t name label)

let hits t = count t "tangram_cache_hits_total"
let misses t = count t "tangram_cache_misses_total"
let evictions t = count t "tangram_cache_evictions_total"
let batches t = count t "tangram_batches_total"
let coalesced t = count t "tangram_coalesced_requests_total"
let retries t = count t "tangram_retries_total"
let faults t = count t "tangram_faults_total"
let quarantines t = count t "tangram_quarantines_total"
let fallbacks t = count t "tangram_fallback_serves_total"
let degraded t = count t "tangram_degraded_serves_total"
let bad_requests t = count t "tangram_bad_requests_total"
let backoff_total_us t = M.value t.reg "tangram_backoff_simulated_us_total"
let sdc_checks t = count t "tangram_sdc_checks_total"
let sdc_catches t = count t "tangram_sdc_catches_total"
let sdc_false_alarms t = count t "tangram_sdc_false_alarms_total"
let sdc_reexecs t = count t "tangram_sdc_reexecs_total"
let admitted t = total t "tangram_admitted_total"

let admitted_interactive t =
  count t ~labels:(class_label true) "tangram_admitted_total"

let admitted_batch t =
  count t ~labels:(class_label false) "tangram_admitted_total"

let sheds t = total t "tangram_shed_total"
let sheds_interactive t =
  count t ~labels:(class_label true) "tangram_shed_total"
let sheds_batch t = count t ~labels:(class_label false) "tangram_shed_total"
let deadline_expiries t = count t "tangram_deadline_expiries_total"

let deadline_witness_serves t =
  count t "tangram_deadline_witness_serves_total"

let brownout_transitions t = count t "tangram_brownout_transitions_total"
let brownout_max_level t = count t "tangram_brownout_max_level"
let brownout_sheds t = by_label t "tangram_brownout_shed_total" "work"
let fleet_dispatches t = count t "tangram_fleet_dispatches_total"
let fleet_reroutes t = count t "tangram_fleet_reroutes_total"

let fleet_hedges_fired t =
  count t ~labels:(hedges "fired") "tangram_fleet_hedges_total"

let fleet_hedges_won t =
  count t ~labels:(hedges "won") "tangram_fleet_hedges_total"

let fleet_ejects t = total t "tangram_fleet_ejections_total"
let fleet_readmits t = total t "tangram_fleet_readmissions_total"
let fleet_deaths t = total t "tangram_fleet_dead_total"
let fleet_drains t = total t "tangram_fleet_drains_total"
let fleet_promotions t = total t "tangram_fleet_promotions_total"
let alerts t = total t "tangram_slo_alerts_total"
let incidents t = total t "tangram_incidents_total"

let winner_histogram t =
  ranked t "tangram_requests_served_total" "version"

let series_of (h : M.histogram) : series =
  let count = M.hist_count h in
  if count = 0 then { count; mean = 0.0; p50 = 0.0; p95 = 0.0; max = 0.0 }
  else
    {
      count;
      mean = M.hist_sum h /. float_of_int count;
      p50 = M.quantile h 50.0;
      p95 = M.quantile h 95.0;
      max = M.hist_max h;
    }

let plan_series t = series_of t.plan
let tune_series t = series_of t.tune
let run_series t = series_of t.run
let verify_series t = series_of t.verify
let queue_wait_series t = series_of t.queue_wait

let kernel_rows t =
  List.map
    (fun (labels, requests) ->
      let field (name, _) =
        ( name,
          if name = "max_heat" then
            M.value t.reg ~labels "tangram_kernel_max_heat"
          else
            M.value t.reg
              ~labels:(("counter", name) :: labels)
              "tangram_kernel_counter_total" )
      in
      ( (List.assoc "arch" labels, List.assoc "version" labels),
        ( int_of_float requests,
          List.map field
            (Gpusim.Events.totals_fields Gpusim.Events.zero_totals) ) ))
    (M.series t.reg "tangram_kernel_requests_total")

(* the gates of the report's sections: a section stays absent until its
   machinery fires, so a quiet service prints the report it always did.
   Admission traffic alone (requests through the queue at zero load) is
   not an overload event. *)
let faults_fired t =
  faults t + retries t + quarantines t + fallbacks t + degraded t
  + bad_requests t
  > 0

let sdc_fired t = sdc_catches t + sdc_false_alarms t + sdc_reexecs t > 0

let overload_fired t =
  sheds t + deadline_expiries t + deadline_witness_serves t
  + brownout_transitions t
  > 0

(* fleet families register on first use, and attaching a fleet records
   every device's state: any fleet series means a fleet fired *)
let fleet_fired t =
  List.exists
    (fun (r : M.window_row) ->
      String.starts_with ~prefix:"tangram_fleet_" r.wr_name)
    (M.rows t.reg)

let monitoring_fired t = alerts t + incidents t > 0

(* ------------------------------------------------------------------ *)
(* Text report                                                         *)
(* ------------------------------------------------------------------ *)

(* Host-clocked numbers print unpadded: their digit count varies run to
   run, and the report's shape must depend only on which lines exist. *)
let report (t : t) : string =
  let b = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let rows l = List.iter (fun (k, n) -> pr "    %-32s %6d\n" k n) l in
  pr "=== service metrics ===\n";
  let hits = hits t and misses = misses t in
  let lookups = hits + misses in
  pr "cache: %d lookups, %d hits, %d misses (%.1f%% hit rate), %d evictions\n"
    lookups hits misses
    (if lookups = 0 then 0.0
     else 100.0 *. float_of_int hits /. float_of_int lookups)
    (evictions t);
  if batches t > 0 then
    pr "batching: %d batches dispatched, %d requests coalesced\n" (batches t)
      (coalesced t);
  pr "\nper-bucket lookups (hits/misses):\n";
  let lookups_of result bucket =
    count t
      ~labels:[ ("bucket", bucket); ("result", result) ]
      "tangram_bucket_lookups_total"
  in
  List.iter
    (fun bucket ->
      pr "  %-40s %6d / %d\n" bucket (lookups_of "hit" bucket)
        (lookups_of "miss" bucket))
    (List.sort_uniq compare
       (List.map
          (fun (ls, _) -> List.assoc "bucket" ls)
          (M.series t.reg "tangram_bucket_lookups_total")));
  (* an empty series renders "-", not a misleading 0.0 *)
  let num (s : series) v =
    if s.count > 0 then Printf.sprintf "%.1f" v else "-"
  in
  let line name s =
    pr "  %-6s %6d samples   p50 %s us   p95 %s us   max %s us\n" name s.count
      (num s s.p50) (num s s.p95) (num s s.max)
  in
  pr "\nlatencies (host wall clock):\n";
  line "plan" (plan_series t);
  line "tune" (tune_series t);
  line "run" (run_series t);
  pr "\nwinning versions (requests served):\n";
  List.iter (fun (v, n) -> pr "  %-34s %6d\n" v n) (winner_histogram t);
  if faults_fired t then begin
    pr "\nfault tolerance:\n";
    pr "  faults %d   retries %d   backoff (simulated) %.1f us\n" (faults t)
      (retries t) (backoff_total_us t);
    pr
      "  quarantine events %d   fallback serves %d   degraded serves %d   \
       bad requests %d\n"
      (quarantines t) (fallbacks t) (degraded t) (bad_requests t);
    match ranked t "tangram_version_faults_total" "version" with
    | [] -> ()
    | hist ->
        pr "  faults by version:\n";
        rows hist
  end;
  if sdc_fired t then begin
    let checks = sdc_checks t in
    pr "\nsilent-data-corruption guard:\n";
    pr
      "  checks %d   caught %d   re-executions %d   false alarms %d (%.2f%% \
       of checks)\n"
      checks (sdc_catches t) (sdc_reexecs t) (sdc_false_alarms t)
      (if checks = 0 then 0.0
       else 100.0 *. float_of_int (sdc_false_alarms t) /. float_of_int checks);
    let v = verify_series t in
    if v.count > 0 then
      pr "  verify overhead: p50 %.1f us   p95 %.1f us   max %.1f us\n" v.p50
        v.p95 v.max
  end;
  if overload_fired t then begin
    pr "\noverload resilience:\n";
    pr
      "  admitted %d (interactive %d, batch %d)   shed %d (interactive %d, \
       batch %d)\n"
      (admitted t) (admitted_interactive t) (admitted_batch t) (sheds t)
      (sheds_interactive t) (sheds_batch t);
    pr "  deadline expiries %d   degraded witness serves %d\n"
      (deadline_expiries t) (deadline_witness_serves t);
    pr "  brownout transitions %d   max level %d\n" (brownout_transitions t)
      (brownout_max_level t);
    (match brownout_sheds t with
    | [] -> ()
    | sheds ->
        pr "  work shed under brownout:\n";
        rows sheds);
    let q = queue_wait_series t in
    if q.count > 0 then
      pr "  queue wait (virtual): p50 %.1f us   p95 %.1f us   max %.1f us\n"
        q.p50 q.p95 q.max
  end;
  if fleet_fired t then begin
    pr "\ndevice fleet:\n";
    pr
      "  dispatches %d   rerouted off dying devices %d   hedges fired %d / \
       won %d\n"
      (fleet_dispatches t) (fleet_reroutes t) (fleet_hedges_fired t)
      (fleet_hedges_won t);
    pr
      "  ejections %d   readmissions %d   dead %d   drains %d   spare \
       promotions %d\n"
      (fleet_ejects t) (fleet_readmits t) (fleet_deaths t) (fleet_drains t)
      (fleet_promotions t);
    let states =
      List.filter_map
        (fun (ls, v) ->
          if v > 0.0 then Some (List.assoc "device" ls, List.assoc "state" ls)
          else None)
        (M.series t.reg "tangram_fleet_device_state")
    in
    if states <> [] then begin
      pr "  per-device:\n";
      List.iter
        (fun (d, state) ->
          pr "    %-24s %-8s dispatches %6d   hedge wins %4d   health %.2f\n"
            d state
            (count t ~labels:(device d) "tangram_fleet_device_dispatches_total")
            (count t ~labels:(device d) "tangram_fleet_device_hedge_wins_total")
            (M.value t.reg ~labels:(device d) "tangram_fleet_device_health"))
        states
    end
  end;
  if monitoring_fired t then begin
    pr "\nmonitoring:\n";
    pr "  slo alerts %d   incident bundles %d\n" (alerts t) (incidents t);
    (match by_label t "tangram_slo_alerts_total" "slo" with
    | [] -> ()
    | slos ->
        pr "  alerts by slo:\n";
        rows slos);
    match by_label t "tangram_incidents_total" "trigger" with
    | [] -> ()
    | kinds ->
        pr "  incidents by trigger:\n";
        rows kinds
  end;
  (match kernel_rows t with
  | [] -> ()
  | kernels ->
      pr "\nkernel counters (per arch, version):\n";
      pr "  %-10s %-26s %8s %12s %10s %12s %12s %10s %14s\n" "arch" "version"
        "requests" "warp insts" "shfl" "shared ser" "glb atomics" "max heat"
        "dram bytes";
      List.iter
        (fun ((arch, version), (requests, fields)) ->
          let f k = List.assoc k fields in
          pr "  %-10s %-26s %8d %12.0f %10.0f %12.0f %12.0f %10.0f %14.0f\n"
            arch version requests (f "warp_insts") (f "shfl_insts")
            (f "shared_serial") (f "atomic_global_ops") (f "max_heat")
            (f "bytes_dram"))
        kernels);
  Buffer.contents b

let to_json t = Obs.Json.to_string (M.to_json t.reg)
let to_prometheus t = M.to_prometheus t.reg
