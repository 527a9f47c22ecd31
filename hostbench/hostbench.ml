(* One pass of the host-cost benchmark.

   A pass is one process running one workload: set-up, then a fixed op
   list drawn from --seed, executed [reps] times, each op timed in
   process CPU time (user + sys from Unix.times). The pass prints one
   JSON object of raw figures; run.py runs two passes of the same seed,
   checks that their deterministic figures agree bit for bit, and turns
   the figures into metrics.

     hostbench.exe run --workload W --seed N --seconds S [--trace] [--rewalk K]
     hostbench.exe setup --workload W
     hostbench.exe regen-fixture --out FILE
     hostbench.exe timer

   See README.md for the workloads and metrics. *)

module P = Synthesis.Planner
module V = Synthesis.Version
module S = Runtime.Service
module PC = Runtime.Plan_cache
module R = Gpusim.Runner
module T = Obs.Trace

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("hostbench: " ^ msg);
      exit 3)
    fmt

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(* On a shared machine the CPU time of the same op is not fixed: other
   tenants' load slows this process's cache-heavy code by up to 2x, in
   phases from a fraction of a second to minutes, and CPU time counts the
   slow-down. A fixed reference chunk (random probes into a 4 MB table
   and a streaming pass over 1 MB) that uses no code of the repository
   and allocates nothing on the OCaml heap, so it leaves the program's
   garbage collection as it was, is timed between ops. It slows with the
   machine, so each op's CPU time is divided by the chunk's time around
   it relative to [nominal_s], the chunk's time on an unloaded machine. *)
module Speed = struct
  let slots = 1 lsl 19
  let stream = 1 lsl 17

  let table =
    lazy
      (let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout slots in
       Bigarray.Array1.fill t 0;
       for i = 0 to slots / 2 do
         t.{i * 2654435761 land (slots - 1)} <- i
       done;
       t)

  let buf =
    lazy
      (let b = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout stream in
       Bigarray.Array1.fill b 1.0;
       b)

  let chunk () =
    let table = Lazy.force table and buf = Lazy.force buf in
    let s = ref 0 and x = ref 12345 and f = ref 0.0 in
    for _ = 1 to 2 do
      for _ = 1 to 8000 do
        x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
        s := !s + Bigarray.Array1.unsafe_get table (!x land (slots - 1))
      done;
      for i = 0 to stream - 1 do
        let v = Bigarray.Array1.unsafe_get buf i in
        Bigarray.Array1.unsafe_set buf i ((v *. 0.5) +. 0.5);
        f := !f +. v
      done
    done;
    float_of_int !s +. !f

  (* the chunk's CPU time on the unloaded 2-vCPU Xeon the benchmark was
     written on *)
  let nominal_s = 0.00025

  (* CPU spent in the reference, excluded from set-up time *)
  let spent = ref 0.0

  let sample () =
    let c0 = cpu () in
    ignore (Lazy.force table, Lazy.force buf);
    (* the first run brings the chunk's data back into cache; the
       second, timed, run then depends on the machine alone *)
    ignore (Sys.opaque_identity (chunk ()));
    let c1 = cpu () in
    ignore (Sys.opaque_identity (chunk ()));
    let c2 = cpu () in
    spent := !spent +. (c2 -. c0);
    c2 -. c1

  (* slow-down factor from the samples taken before and after *)
  let factor before after = (before +. after) /. 2.0 /. nominal_s
end

(* Set-up CPU from process start to [ready], reference chunks excluded,
   corrected for host speed by reference samples before and after. *)
let start_sample = ref nan
let setup_s = ref nan

let ready () =
  let c = cpu () and spent = !Speed.spent in
  setup_s := (c -. spent) /. Speed.factor !start_sample (Speed.sample ())

(* ------------------------------------------------------------------ *)
(* JSON output                                                          *)
(* ------------------------------------------------------------------ *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

(* %.17g round-trips every float, so run.py can compare two passes'
   deterministic figures bit for bit *)
let rec emit b = function
  | Num f when Float.is_finite f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Num _ -> Buffer.add_string b "null"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s -> Buffer.add_string b ("\"" ^ Obs.Json.escape s ^ "\"")
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          emit b x)
        l;
      Buffer.add_char b ']'
  | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          emit b (Str k);
          Buffer.add_char b ':';
          emit b x)
        l;
      Buffer.add_char b '}'

let print_json j =
  let b = Buffer.create 65536 in
  emit b j;
  print_endline (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

let archs = Array.of_list Gpusim.Arch.presets
let paper_sizes = Array.of_list Runtime.Trace.paper_sizes

(* Cells at sizes up to this are served dense (exact mode,
   witness-checked); larger ones synthetic (sampled mode), as in
   [tangramc serve]. *)
let dense_upto = 4096

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* A request size drawn from the first sixteenth of a cell size's
   power-of-two bucket: every seed reaches the same plan-cache keys with
   its own sizes, while the work per cell stays within a few percent of
   the cell's (a draw over the whole bucket moved warm-serve throughput by
   several percent from seed to seed). *)
let size_near st size = size + Random.State.int st (max 1 (size / 16))

let input_of st ~cell_size n =
  let draw _ = float_of_int (Random.State.int st 16) in
  if cell_size <= dense_upto then R.Dense (Array.init n draw)
  else R.Synthetic { n; pattern = Array.init 1024 draw }

let cells sizes = Array.concat (Array.to_list (Array.map (fun a -> Array.map (fun s -> (a, s)) sizes) archs))

(* ------------------------------------------------------------------ *)
(* Per-pass tallies                                                    *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable op_cpu : float list;  (** per-op CPU seconds, newest first *)
  mutable op_ref : int list;  (** per op, the reference sample taken before it *)
  mutable refs : float list;  (** reference samples, newest first *)
  mutable nrefs : int;
  mutable since_ref : int;
  mutable sim_us : float list;  (** per-op simulated microseconds *)
  mutable alloc : float;  (** bytes allocated inside timed ops *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** the first few failure messages *)
  mutable wall : float;  (** wall seconds inside timed ops *)
}

let tally =
  { op_cpu = []; op_ref = []; refs = []; nrefs = 0; since_ref = max_int; sim_us = [];
    alloc = 0.0; attempted = 0; failed = 0; errors = []; wall = 0.0 }

(* Ops between two reference samples, set per workload. *)
let ref_every = ref 1

let take_ref () =
  tally.refs <- Speed.sample () :: tally.refs;
  tally.nrefs <- tally.nrefs + 1;
  tally.since_ref <- 0

let record_failure msg =
  tally.failed <- tally.failed + 1;
  if List.length tally.errors < 8 then tally.errors <- msg :: tally.errors

(* Time one op in CPU time, counting the bytes it allocates. *)
let timed f =
  if tally.since_ref >= !ref_every then take_ref ();
  tally.since_ref <- tally.since_ref + 1;
  let a0 = Gc.allocated_bytes () in
  let w0 = Unix.gettimeofday () in
  let c0 = cpu () in
  let r = f () in
  let c1 = cpu () in
  let w1 = Unix.gettimeofday () in
  let a1 = Gc.allocated_bytes () in
  tally.attempted <- tally.attempted + 1;
  tally.op_cpu <- (c1 -. c0) :: tally.op_cpu;
  tally.op_ref <- (tally.nrefs - 1) :: tally.op_ref;
  tally.wall <- tally.wall +. (w1 -. w0);
  tally.alloc <- tally.alloc +. (a1 -. a0);
  r

(* Time a layer call for the per-layer figures: (result, cpu s, bytes). *)
let measure f =
  let a0 = Gc.allocated_bytes () in
  let c0 = cpu () in
  let r = f () in
  let c1 = cpu () in
  (r, c1 -. c0, Gc.allocated_bytes () -. a0)

(* ------------------------------------------------------------------ *)
(* Span summaries (traced passes)                                      *)
(* ------------------------------------------------------------------ *)

(* Spans are clocked in process CPU microseconds (see [run_pass]), so a
   span's duration is the CPU its subtree spent. *)
let span_total (forest : T.node list) name =
  T.fold_nodes
    (fun ((c, us) as acc) (n : T.node) ->
      if n.T.n_name = name then (c + 1, us +. n.T.n_dur_us) else acc)
    (0, 0.0) forest

let mean_ms forest name =
  let c, us = span_total forest name in
  ratio us (float_of_int c) /. 1e3

(* Sum of the durations of the outermost descendants of [n] named in
   [names] (a matched span's own descendants are not searched). *)
let rec covered names (n : T.node) =
  List.fold_left
    (fun acc (c : T.node) ->
      if List.mem c.T.n_name names then acc +. c.T.n_dur_us else acc +. covered names c)
    0.0 n.T.n_children

(* Mean CPU microseconds a request spent outside the named spans. *)
let request_self_us names (forest : T.node list) =
  let c, us =
    List.fold_left
      (fun (c, us) (n : T.node) ->
        if n.T.n_name = "request" then (c + 1, us +. n.T.n_dur_us -. covered names n) else (c, us))
      (0, 0.0) forest
  in
  ratio us (float_of_int c)

(* ------------------------------------------------------------------ *)
(* Shared serving pieces                                               *)
(* ------------------------------------------------------------------ *)

let key_of planner arch n =
  PC.key ~arch:arch.Gpusim.Arch.name ~op:(P.op_name planner) ~elem:(P.elem_name planner) ~n

(* The response must be served by a version (not the degraded host path),
   in the mode its input asks for, with an exact value within the
   tolerance model's bound of the host reference. Sampled values are
   extrapolated from a few blocks and carry no such guarantee. *)
let check_response planner (req : S.request) (r : S.response) =
  let n = R.input_size req.S.req_input in
  let dense = match req.S.req_input with R.Dense _ -> true | R.Synthetic _ -> false in
  if r.S.resp_degraded then Some (Printf.sprintf "n=%d served degraded" n)
  else if r.S.resp_exact <> dense then
    Some (Printf.sprintf "n=%d served exact=%b for a %s input" n r.S.resp_exact
            (if dense then "dense" else "synthetic"))
  else if not dense then None
  else
    let expected = P.reference_input planner req.S.req_input in
    let tol =
      Runtime.Tolerance.bound ~op:planner.P.op ~elem:planner.P.elem ~version:r.S.resp_version ~n
        ~sum_abs:(Runtime.Tolerance.sum_abs_of_input req.S.req_input) ()
    in
    if Runtime.Tolerance.acceptable tol ~expected ~got:r.S.resp_value then None
    else
      Some
        (Printf.sprintf "n=%d value %.17g outside %s of reference %.17g" n r.S.resp_value
           (Runtime.Tolerance.describe tol) expected)

(* Submit one request as a timed op and check it. [want_hit] is the
   plan-cache outcome the workload requires. *)
let serve_op planner svc req ~want_hit =
  match timed (fun () -> S.submit_result svc req) with
  | Error e ->
      record_failure (S.error_message e);
      None
  | Ok r ->
      tally.sim_us <- r.S.resp_sim_us :: tally.sim_us;
      (if r.S.resp_hit <> want_hit then
         record_failure
           (Printf.sprintf "%s n=%d: plan cache %s, expected a %s" req.S.req_arch.Gpusim.Arch.name
              (R.input_size req.S.req_input)
              (if r.S.resp_hit then "hit" else "miss")
              (if want_hit then "hit" else "miss"))
       else Option.iter record_failure (check_response planner req r));
      Some r

(* Stats counters summed over the services a pass used. *)
let stats_counts svcs =
  let sum f = float_of_int (List.fold_left (fun acc s -> acc + f (S.stats s)) 0 svcs) in
  Runtime.Stats.
    [
      ("stats.hits", sum hits);
      ("stats.misses", sum misses);
      ("stats.degraded", sum degraded);
      ("stats.sdc_checks", sum sdc_checks);
    ]

(* Replay the exact plans among [served] straight through the
   interpreter: warp instructions per CPU second. *)
let warp_insts_per_cpu_s planner (served : (S.request * S.response) list) =
  let exact = List.filter (fun (_, r) -> r.S.resp_exact) served in
  let insts, secs =
    List.fold_left
      (fun (wi, wc) (req, r) ->
        let o, c, _ =
          measure (fun () ->
              R.run_compiled ~opts:Gpusim.Interp.exact ~arch:req.S.req_arch
                ~tunables:r.S.resp_tunables ~input:req.S.req_input
                (P.compiled planner r.S.resp_version))
        in
        let totals =
          Gpusim.Events.totals_of_list
            (List.map (fun l -> l.Gpusim.Interp.lr_events) o.R.launch_results)
        in
        (wi +. totals.Gpusim.Events.t_warp_insts, wc +. c))
      (0.0, 0.0) exact
  in
  ratio insts secs

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* [rewalk]: re-walk every [rewalk]-th cold key through the tuner (0:
   none) *)
type pass = { seed : int; seconds : float; traced : bool; rewalk : int }

(* What a workload hands back: the length of its op list (executed
   [reps] times), deterministic figures that must repeat bit for bit,
   and the per-layer figures of a traced pass (times in raw CPU). *)
type result = {
  list_len : int;
  reps : int;
  det : (string * json) list;
  layers : (string * float) list;
}

(* repetitions of an op list of nominal CPU cost [cost_s] in [seconds] *)
let reps_for seconds cost_s = max 1 (int_of_float (Float.round (seconds /. cost_s)))

(* --- cold-tune ----------------------------------------------------- *)

(* Cold keys come from the buckets 2^5 .. 2^12: a key there costs 0.14-0.8
   CPU-s to plan and tune, against 2-6.7 s for the paper sizes from 16K
   up, and the tail percentile needs more than 20 keys in a run. *)
let cold_sizes = Array.init 8 (fun i -> 1 lsl (i + 5))
let cold_list_cost_s = 7.0

let cold_setup () =
  let planner = P.sum () in
  let candidates = V.enumerate_pruned () in
  List.iter
    (fun v ->
      ignore (P.prove planner v);
      ignore (P.compiled planner v))
    candidates;
  (planner, candidates)

type rewalked = { sweeps : int; configs : int; tune_cpu : float; tune_bytes : float }

(* Re-walk a cold key through the tuner, candidate by candidate, as the
   service's cold path does: the argmin (first strict minimum in
   candidate order) must be the winner the service served. *)
let rewalk planner candidates (req : S.request) (r : S.response) acc =
  let n = R.input_size req.S.req_input in
  let rep = PC.representative_size (PC.bucket_of_size n) in
  let best = ref None and acc = ref acc in
  List.iter
    (fun v ->
      match measure (fun () -> Synthesis.Tuner.tune ~arch:req.S.req_arch ~n:rep (P.compiled planner v)) with
      | o, c, a ->
          acc :=
            {
              sweeps = !acc.sweeps + 1;
              configs = !acc.configs + o.Synthesis.Tuner.evaluated;
              tune_cpu = !acc.tune_cpu +. c;
              tune_bytes = !acc.tune_bytes +. a;
            };
          (match !best with
           | Some (_, _, t) when t <= o.Synthesis.Tuner.best_time_us -> ()
           | _ -> best := Some (v, o.Synthesis.Tuner.best, o.Synthesis.Tuner.best_time_us))
      | exception (Invalid_argument _ | Gpusim.Interp.Sim_error _) -> ())
    candidates;
  (match !best with
   | Some (v, tunables, _)
     when V.name v = V.name r.S.resp_version && tunables = r.S.resp_tunables && r.S.resp_fallback = 0 -> ()
   | Some (v, _, _) ->
       record_failure
         (Printf.sprintf "%s n=%d: tuner re-walk picks %s, service served %s"
            req.S.req_arch.Gpusim.Arch.name n (V.name v) (V.name r.S.resp_version))
   | None -> record_failure (Printf.sprintf "n=%d: no candidate survived the re-walk" n));
  !acc

let cold_tune p =
  let planner, candidates = cold_setup () in
  ready ();
  let setup_spans = T.forest () in
  T.clear ();
  let st = Random.State.make [| p.seed; 1 |] in
  let list =
    Array.map
      (fun (arch, size) ->
        let n = size_near st size in
        { S.req_arch = arch; req_input = input_of st ~cell_size:size n })
      (shuffle st (cells cold_sizes))
  in
  let reps = reps_for p.seconds cold_list_cost_s in
  let served = ref [] and svcs = ref [] in
  for _ = 1 to reps do
    (* a fresh service per repetition: every key of the list is a miss *)
    let svc = S.create planner in
    svcs := svc :: !svcs;
    Array.iter
      (fun req ->
        Option.iter (fun r -> served := (req, r) :: !served) (serve_op planner svc req ~want_hit:false))
      list
  done;
  take_ref ();
  let heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let forest = T.forest () in
  T.set_enabled false;
  (* one repetition's responses, every [rewalk]-th of them re-walked *)
  let first = List.filteri (fun i _ -> i < Array.length list) (List.rev !served) in
  let walked = List.filteri (fun i _ -> p.rewalk > 0 && i mod p.rewalk = 0) first in
  let rw =
    if p.rewalk = 0 then None
    else
      Some
        (List.fold_left
           (fun acc (req, r) -> rewalk planner candidates req r acc)
           { sweeps = 0; configs = 0; tune_cpu = 0.0; tune_bytes = 0.0 }
           walked)
  in
  let layers =
    if not p.traced then []
    else
      let rw = Option.get rw in
      let keys = float_of_int (List.length walked) and configs = float_of_int rw.configs in
      let _, tune_us = span_total forest "tune" and _, request_us = span_total forest "request" in
      [
        ("planner.prove_ms", mean_ms setup_spans "prove");
        ("planner.compile_ms", mean_ms setup_spans "compile");
        ("tuner.sweeps_per_op", ratio (float_of_int rw.sweeps) keys);
        ("tuner.configs_per_op", ratio configs keys);
        ("tuner.ms_per_config", ratio (rw.tune_cpu *. 1e3) configs);
        ("tuner.alloc_mb_per_config", ratio (rw.tune_bytes /. 1e6) configs);
        ("tuner.share", ratio tune_us request_us);
        ("service.cold_overhead_ms", request_self_us [ "tune"; "run"; "verify" ] forest /. 1e3);
        ("interp.warp_insts_per_cpu_s", warp_insts_per_cpu_s planner first);
      ]
      @ stats_counts !svcs
  in
  let det =
    match rw with
    | Some rw -> [ ("tuner.sweeps", Int rw.sweeps); ("tuner.configs", Int rw.configs) ]
    | None -> []
  in
  ({ list_len = Array.length list; reps; det; layers }, heap)

(* --- warm-serve ---------------------------------------------------- *)

let warm_per_cell = 6
let warm_request_cost_s = 0.0016

let warm_setup fixture =
  let planner = P.sum () in
  let cache =
    match S.load_cache fixture with
    | Ok c -> c
    | Error e ->
        fail "warm-serve fixture %s: %s (regenerate it: python3 hostbench/run.py --regen-fixture)"
          fixture (S.error_message e)
  in
  (* a missing key would silently re-tune inside the timed phase *)
  Array.iter
    (fun (arch, size) ->
      let k = key_of planner arch size in
      if not (PC.mem cache k) then
        fail "warm-serve fixture %s lacks %s (regenerate it: python3 hostbench/run.py --regen-fixture)"
          fixture (PC.key_name k))
    (cells paper_sizes);
  let svc = S.create ~cache planner in
  let st = Random.State.make [| 0 |] in
  (* one warm-up request per key: recompiles each winner after the load *)
  Array.iter
    (fun (arch, size) ->
      let req = { S.req_arch = arch; req_input = input_of st ~cell_size:size size } in
      match S.submit_result svc req with
      | Ok r when r.S.resp_hit -> ()
      | Ok _ -> fail "warm-up request %s n=%d missed the plan cache" arch.Gpusim.Arch.name size
      | Error e -> fail "warm-up request failed: %s" (S.error_message e))
    (cells paper_sizes);
  (planner, svc)

let warm_serve fixture p =
  let planner, svc = warm_setup fixture in
  ready ();
  let setup_spans = T.forest () in
  T.clear ();
  let st = Random.State.make [| p.seed; 2 |] in
  (* the Trace.default mix (uniform over testbed x paper size), drawn
     balanced: every cell equally often, in seeded order *)
  let list =
    Array.map
      (fun (arch, size) ->
        let n = size_near st size in
        (arch, size, n, Random.State.bits st, key_of planner arch n))
      (shuffle st (Array.concat (List.init warm_per_cell (fun _ -> cells paper_sizes))))
  in
  let reps = reps_for p.seconds (warm_request_cost_s *. float_of_int (Array.length list)) in
  ref_every := 8;
  let stats_words0 = Obj.reachable_words (Obj.repr (S.stats svc)) in
  let counts0 = stats_counts [ svc ] in
  (* inputs are made just before their op, so the list holds no data *)
  let served = ref [] and kept = ref 0 in
  for _ = 1 to reps do
    Array.iter
      (fun (arch, size, n, input_seed, key) ->
        let input = input_of (Random.State.make [| input_seed |]) ~cell_size:size n in
        let req = { S.req_arch = arch; req_input = input } in
        (* never let a miss re-tune silently *)
        if not (PC.mem (S.cache svc) key) then
          fail "%s is missing from the plan cache" (PC.key_name key);
        match serve_op planner svc req ~want_hit:true with
        | Some r when r.S.resp_exact && p.traced && !kept < 64 ->
            incr kept;
            served := (req, r) :: !served
        | _ -> ())
      list
  done;
  take_ref ();
  let heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let stats_words1 = Obj.reachable_words (Obj.repr (S.stats svc)) in
  let forest = T.forest () in
  T.set_enabled false;
  let requests = float_of_int tally.attempted in
  let layers =
    if not p.traced then []
    else
      let dense (n : T.node) = int_of_string (List.assoc "n" n.T.n_attrs) < 2 * dense_upto in
      let run_ms exact =
        T.fold_nodes
          (fun ((c, us) as acc) (n : T.node) ->
            if n.T.n_name = "run" && dense n = exact then (c + 1, us +. n.T.n_dur_us) else acc)
          (0, 0.0) forest
        |> fun (c, us) -> ratio us (float_of_int c) /. 1e3
      in
      (* Plan_cache.find is too quick for one timer read: time a batch *)
      let keys = Array.map (fun (_, _, _, _, k) -> k) list in
      let finds = 100_000 in
      let (), find_cpu, _ =
        measure (fun () ->
            for i = 0 to finds - 1 do
              ignore (PC.find (S.cache svc) keys.(i mod Array.length keys))
            done)
      in
      [
        ("planner.compile_ms", mean_ms setup_spans "compile");
        ("interp.exact_run_ms", run_ms true);
        ("interp.sampled_run_ms", run_ms false);
        ("interp.warp_insts_per_cpu_s", warp_insts_per_cpu_s planner (List.rev !served));
        ("plan_cache.find_us", find_cpu /. float_of_int finds *. 1e6);
        ("service.warm_overhead_us", request_self_us [ "lookup"; "run"; "verify" ] forest);
        ("guard.verify_us", mean_ms forest "verify" *. 1e3);
      ]
      @ List.map2 (fun (k, v) (_, v0) -> (k, v -. v0)) (stats_counts [ svc ]) counts0
  in
  let stats_kb = float_of_int ((stats_words1 - stats_words0) * (Sys.word_size / 8)) /. 1024.0 in
  ( {
      list_len = Array.length list;
      reps;
      det = [ ("stats.heap_kb_per_1k_req", Num (stats_kb /. (requests /. 1000.0))) ];
      layers;
    },
    heap )

(* --- analyze ------------------------------------------------------- *)

(* Lint totals over the 88 versions of the sum spectrum, as [tangramc
   lint --all-variants] reports them at the commit the benchmark was
   written against. *)
let expected_versions = 88
let expected_lint_errors = 0
let expected_lint_warnings = 246

(* Every pruned version's static sweep runs near a fixed paper size
   (every other one, five versions each, each size on all three testbeds);
   the seed draws the exact size within 1/16 of it. Sizes and testbeds are
   fixed, and the versions run in a fixed order, because the sweep's cost
   and result depend on them far more than on anything a seed could vary
   fairly. *)
let analyze_sizes = [| 256; 4096; 65536; 1048576; 16777216; 268435456 |]
let analyze_list_cost_s = 6.0

(* One lint, the way [tangramc lint] runs it. A traced pass calls the
   layers behind [Planner.lint] one by one, so each gets its own span. *)
let lint planner ~traced v =
  if not traced then (P.lint planner v, P.prove planner v)
  else
    let p = T.span ~name:"compose" (fun () -> P.program planner v) in
    let validate =
      T.span ~name:"validate" (fun () -> Device_ir.Validate.to_diags (Device_ir.Validate.check_program p))
    in
    let race = T.span ~name:"race" (fun () -> Device_ir.Race.check_program p) in
    let access = T.span ~name:"access.check" (fun () -> Device_ir.Access.check_program p) in
    let verdict =
      T.span ~name:"symbolic.prove" (fun () ->
          Symbolic.Prove.equiv ~op:(Synthesis.Lower.ir_atomic_op planner.P.op) ~elem:planner.P.elem p)
    in
    ( Device_ir.Diag.sort
        (validate @ race @ access @ Symbolic.Prove.to_diags ~program:p.Device_ir.Ir.p_name verdict),
      verdict )

(* Price every tunable configuration of [v] statically; the cheapest
   predicted time. *)
let static_sweep planner ~n arch v =
  List.fold_left
    (fun best tunables ->
      Float.min best (T.span ~name:"static_cost" (fun () -> P.static_cost ~n ~tunables arch planner v)))
    infinity
    (Synthesis.Tuner.cartesian (P.program planner v).Device_ir.Ir.p_tunables)

let analyze_setup () = (P.sum (), V.enumerate (), V.enumerate_pruned ())

let analyze p =
  let planner, versions, pruned = analyze_setup () in
  ready ();
  let st = Random.State.make [| p.seed; 3 |] in
  let sweep_of = Hashtbl.create 32 in
  let nsizes = Array.length analyze_sizes in
  List.iteri
    (fun i v ->
      let size = analyze_sizes.(i mod nsizes) in
      Hashtbl.replace sweep_of (V.name v)
        (size_near st size, archs.(i / nsizes mod Array.length archs)))
    pruned;
  let list = Array.of_list versions in
  let reps = reps_for p.seconds analyze_list_cost_s in
  let proved = ref 0 and refuted = ref 0 and errors = ref 0 and warnings = ref 0 in
  for rep = 1 to reps do
    (* a fresh planner per repetition, so every proof is computed *)
    let planner = if rep = 1 then planner else P.sum () in
    Array.iter
      (fun v ->
        let diags, verdict, cost =
          timed (fun () ->
              let diags, verdict = lint planner ~traced:p.traced v in
              let sweep = Hashtbl.find_opt sweep_of (V.name v) in
              (diags, verdict, Option.map (fun (n, arch) -> static_sweep planner ~n arch v) sweep))
        in
        Option.iter (fun c -> tally.sim_us <- c :: tally.sim_us) cost;
        errors := !errors + List.length (Device_ir.Diag.errors diags);
        warnings := !warnings + List.length (Device_ir.Diag.warnings diags);
        if Symbolic.Prove.proved verdict then incr proved
        else begin
          incr refuted;
          record_failure (Printf.sprintf "%s: %s" (V.name v) (Symbolic.Prove.describe verdict))
        end)
      list
  done;
  take_ref ();
  let heap = (Gc.quick_stat ()).Gc.top_heap_words in
  if List.length versions <> expected_versions then
    record_failure (Printf.sprintf "%d versions, expected %d" (List.length versions) expected_versions);
  if !errors <> reps * expected_lint_errors || !warnings <> reps * expected_lint_warnings then
    record_failure
      (Printf.sprintf "lint found %d errors and %d warnings, expected %d and %d" !errors !warnings
         (reps * expected_lint_errors) (reps * expected_lint_warnings));
  let forest = T.forest () in
  T.set_enabled false;
  let layers =
    if not p.traced then []
    else
      [
        ("symbolic.prove_ms", mean_ms forest "symbolic.prove");
        ("race.ms", mean_ms forest "race");
        ("access.check_ms", mean_ms forest "access.check");
        ("access.static_cost_ms_per_config", mean_ms forest "static_cost");
        ("access.static_configs", float_of_int (fst (span_total forest "static_cost")));
        ("lint.proved", float_of_int !proved);
        ("lint.refuted", float_of_int !refuted);
        ("lint.errors", float_of_int !errors);
        ("lint.warnings", float_of_int !warnings);
      ]
  in
  ( {
      list_len = Array.length list;
      reps;
      det = [ ("lint.errors", Int !errors); ("lint.warnings", Int !warnings) ];
      layers;
    },
    heap )

(* ------------------------------------------------------------------ *)
(* Fixture regeneration, timer probe, main                             *)
(* ------------------------------------------------------------------ *)

(* Cold-tune every (testbed, paper size) key through a fresh service and
   save the warmed plan cache: the warm-serve fixture. *)
let regen_fixture out =
  let planner = P.sum () in
  let svc = S.create planner in
  let st = Random.State.make [| 0 |] in
  Array.iter
    (fun (arch, n) ->
      let req = { S.req_arch = arch; req_input = input_of st ~cell_size:n n } in
      let c0 = cpu () in
      match S.submit_result svc req with
      | Ok r ->
          Printf.eprintf "%s n=%d: %s, %.3f CPU-s\n%!" arch.Gpusim.Arch.name n
            (V.name r.S.resp_version) (cpu () -. c0)
      | Error e -> fail "regenerating %s n=%d: %s" arch.Gpusim.Arch.name n (S.error_message e))
    (cells paper_sizes);
  PC.save (S.cache svc) out

(* The smallest step the CPU clock takes, and the cost of one read. *)
let timer_probe () =
  let reads = ref 0 and smallest = ref infinity in
  let c_start = cpu () in
  while cpu () -. c_start < 0.2 do
    let a = cpu () in
    let b = ref (cpu ()) in
    reads := !reads + 2;
    while !b = a do
      b := cpu ();
      incr reads
    done;
    smallest := Float.min !smallest (!b -. a)
  done;
  let read_s = (cpu () -. c_start) /. float_of_int !reads in
  let chunks = Array.init 200 (fun _ -> Speed.sample ()) in
  Array.sort compare chunks;
  print_json
    (Obj [ ("resolution_s", Num !smallest); ("read_s", Num read_s); ("reference_s", Num chunks.(100)) ])

let workloads = [ "cold-tune"; "warm-serve"; "analyze" ]

let usage () =
  prerr_endline
    "usage: hostbench.exe run --workload W --seed N --seconds S [--trace] [--rewalk K] [--fixture F]\n\
    \       hostbench.exe setup --workload W [--fixture F]\n\
    \       hostbench.exe regen-fixture --out FILE\n\
    \       hostbench.exe timer";
  exit 2

let default_fixture = "hostbench/warm_cache.sexp"

let run_pass workload fixture p =
  if p.traced then begin
    T.set_capacity (1 lsl 19);
    T.set_clock (fun () -> cpu () *. 1e6);
    T.set_enabled true
  end;
  let res, heap_words =
    match workload with
    | "cold-tune" -> cold_tune p
    | "warm-serve" -> warm_serve fixture p
    | _ -> analyze p
  in
  if T.dropped () > 0 then fail "the trace ring dropped %d events" (T.dropped ());
  let refs = Array.of_list (List.rev tally.refs) in
  let op_ref = Array.of_list (List.rev tally.op_ref) in
  let op_cpu = Array.of_list (List.rev tally.op_cpu) in
  let op_norm =
    Array.mapi (fun i c -> c /. Speed.factor refs.(op_ref.(i)) refs.(op_ref.(i) + 1)) op_cpu
  in
  let ops = tally.attempted in
  let sims = tally.sim_us in
  let geomean =
    if sims = [] then nan
    else exp (List.fold_left (fun a x -> a +. log x) 0.0 sims /. float_of_int (List.length sims))
  in
  let speed = Array.fold_left ( +. ) 0.0 refs /. float_of_int (Array.length refs) /. Speed.nominal_s in
  print_json
    (Obj
       [
         ("workload", Str workload);
         ("seed", Int p.seed);
         ("traced", Bool p.traced);
         ("setup_s", Num !setup_s);
         ("list_len", Int res.list_len);
         ("reps", Int res.reps);
         ("op_cpu_s", Arr (Array.to_list (Array.map (fun x -> Num x) op_cpu)));
         ("op_norm_s", Arr (Array.to_list (Array.map (fun x -> Num x) op_norm)));
         ("speed_factor", Num speed);
         ("refs", Arr (Array.to_list (Array.map (fun x -> Num x) refs)));
         ("op_ref", Arr (Array.to_list (Array.map (fun x -> Int x) op_ref)));
         ("wall_s", Num tally.wall);
         ("errors", Arr (List.rev_map (fun e -> Str e) tally.errors));
         ( "det",
           Obj
             ([
                ("ops", Int ops);
                ("failed", Int tally.failed);
                ("plan_sim_us_geomean", Num geomean);
                ("alloc_mb_per_op", Num (tally.alloc /. 1e6 /. float_of_int (max 1 ops)));
                ("peak_heap_mb", Num (float_of_int (heap_words * (Sys.word_size / 8)) /. 1e6));
              ]
             @ res.det) );
         ("layers", Obj (List.map (fun (k, v) -> (k, Num v)) res.layers));
       ])

let () =
  start_sample := Speed.sample ();
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let workload () =
    match opt "--workload" args with Some w when List.mem w workloads -> w | _ -> usage ()
  in
  let fixture = Option.value ~default:default_fixture (opt "--fixture" args) in
  match args with
  | "run" :: _ -> (
      let workload = workload () in
      match
        (Option.bind (opt "--seed" args) int_of_string_opt, Option.bind (opt "--seconds" args) float_of_string_opt)
      with
      | Some seed, Some seconds when seconds > 0.0 ->
          run_pass workload fixture
            {
              seed;
              seconds;
              traced = List.mem "--trace" args;
              rewalk = Option.value ~default:0 (Option.bind (opt "--rewalk" args) int_of_string_opt);
            }
      | _ -> usage ())
  | "setup" :: _ ->
      (match workload () with
       | "cold-tune" -> ignore (cold_setup ())
       | "warm-serve" -> ignore (warm_setup fixture)
       | _ -> ignore (analyze_setup ()));
      ready ();
      print_json (Obj [ ("setup_s", Num !setup_s) ])
  | "regen-fixture" :: _ -> (
      match opt "--out" args with Some out -> regen_fixture out | None -> usage ())
  | [ "timer" ] -> timer_probe ()
  | _ -> usage ()
