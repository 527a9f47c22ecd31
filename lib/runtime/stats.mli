(** Service metrics: cache effectiveness, latency distributions,
    winning versions, failure, overload, fleet and monitoring events.

    A [t] is a set of named instruments in one {!Obs.Metrics} registry:
    counters (labelled per bucket, version, SLO, trigger or device),
    gauges for maxima and device state, and log-bucketed histograms
    ([tangram_latency_us{stage=...}]) for the latency series. Recording
    is O(1) and memory is bounded by the number of distinct label
    values, never by the number of requests. *)

type t

(** Summary of one latency histogram (microseconds). Quantiles read
    bucket upper bounds (within 9%) capped at the true maximum. *)
type series = {
  count : int;
  mean : float;
  p50 : float;
  p95 : float;
  max : float;
}

val create : unit -> t

(** The registry holding every instrument. A service monitor registers
    its own instruments here and snapshots it into windows. *)
val registry : t -> Obs.Metrics.t

(** {1 Recording}

    Host wall-clock series: [plan_us], [tune_us], [run_us], [verify_us].
    Virtual-time series: [queue_wait_us], [backoff_us]. *)

val hit : t -> bucket:string -> unit
val miss : t -> bucket:string -> unit
val eviction : t -> unit

(** Record that [version] served a request. *)
val winner : t -> string -> unit

val plan_us : t -> float -> unit
val tune_us : t -> float -> unit
val run_us : t -> float -> unit

(** One dispatched batch and how many of its requests were coalesced
    into another request's simulation. *)
val batch : t -> size:int -> coalesced:int -> unit

(** {2 Failures} *)

val retry : t -> unit

(** A timeout, corrupted result or exhausted retries, charged to
    [version]. *)
val fault : t -> version:string -> unit

val quarantine : t -> unit
val fallback : t -> unit
val degrade : t -> unit
val bad_request : t -> unit

(** Simulated microseconds spent in retry backoff. *)
val backoff_us : t -> float -> unit

(** {2 Silent-data-corruption guard} *)

val sdc_check : t -> unit
val sdc_catch : t -> unit

(** An out-of-tolerance result reproduced deterministically: charged to
    the tolerance model, not the version. *)
val sdc_false_alarm : t -> unit

val sdc_reexec : t -> unit
val verify_us : t -> float -> unit

(** {2 Overload resilience}

    Fed by {!Admission} and by {!Service} deadline budgets. *)

val admit : t -> interactive:bool -> unit
val shed_request : t -> interactive:bool -> unit
val deadline_expire : t -> unit

(** A budget died after the witness was computed; the witness served. *)
val deadline_witness_serve : t -> unit

(** The brownout controller moved to [level] (the max-level gauge keeps
    the highest). *)
val brownout_transition : t -> level:int -> unit

(** Optional work shed under brownout ([what]: ["profile"], ["reexec"],
    ["witness-sample"], ["host-path"]). *)
val brownout_shed : t -> what:string -> unit

val queue_wait_us : t -> float -> unit

(** {2 Fleet}

    Fed by {!Fleet}; [device] is its stable label (["d0:kepler-k40c"]). *)

val fleet_dispatch : t -> device:string -> unit
val fleet_health : t -> device:string -> float -> unit
val fleet_state : t -> device:string -> string -> unit
val fleet_eject : t -> device:string -> unit
val fleet_readmit : t -> device:string -> unit
val fleet_dead : t -> device:string -> unit
val fleet_drain : t -> device:string -> unit
val fleet_promote : t -> device:string -> unit
val fleet_reroute : t -> unit
val fleet_hedge_fired : t -> unit
val fleet_hedge_won : t -> device:string -> unit

(** {2 Kernel profiling and monitoring} *)

(** Fold one served outcome's launch counters into the per-(arch,
    version) counters; [max_heat] is a gauge keeping the maximum. *)
val kernel : t -> arch:string -> version:string -> Gpusim.Events.totals -> unit

(** An SLO burn-rate alert started firing. *)
val alert : t -> slo:string -> unit

(** The flight recorder dumped a bundle ([kind]: ["alert"], ["sdc"],
    ["device-eject"]). *)
val incident : t -> kind:string -> unit

(** {1 Reading} *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
val batches : t -> int
val coalesced : t -> int
val retries : t -> int
val faults : t -> int
val quarantines : t -> int
val fallbacks : t -> int
val degraded : t -> int
val bad_requests : t -> int
val backoff_total_us : t -> float
val sdc_checks : t -> int
val sdc_catches : t -> int
val sdc_false_alarms : t -> int
val sdc_reexecs : t -> int
val admitted : t -> int
val admitted_interactive : t -> int
val admitted_batch : t -> int
val sheds : t -> int
val sheds_interactive : t -> int
val sheds_batch : t -> int
val deadline_expiries : t -> int
val deadline_witness_serves : t -> int
val brownout_transitions : t -> int
val brownout_max_level : t -> int

(** Work shed per brownout step, sorted by step name. *)
val brownout_sheds : t -> (string * int) list

val fleet_dispatches : t -> int
val fleet_reroutes : t -> int
val fleet_hedges_fired : t -> int
val fleet_hedges_won : t -> int
val fleet_ejects : t -> int
val fleet_readmits : t -> int
val fleet_deaths : t -> int
val fleet_drains : t -> int
val fleet_promotions : t -> int
val alerts : t -> int
val incidents : t -> int

(** Serve counts per winning version, most-served first. *)
val winner_histogram : t -> (string * int) list

(** Empty series read as all-zero. *)
val plan_series : t -> series

val tune_series : t -> series
val run_series : t -> series
val verify_series : t -> series
val queue_wait_series : t -> series

(** Kernel counters as ((arch, version), (requests, fields)), sorted by
    (arch, version); [fields] follows {!Gpusim.Events.totals_fields}.
    Empty unless profiling was on. *)
val kernel_rows : t -> ((string * string) * (int * (string * float) list)) list

(** {2 Section gates}

    A report section stays absent until its machinery fires, so a quiet
    service prints the report it always did. *)

(** A shed, deadline expiry, witness serve or brownout transition.
    Admission traffic alone does not count. *)
val overload_fired : t -> bool

(** Any fleet series exists (attaching a fleet records device state). *)
val fleet_fired : t -> bool

(** An SLO alert fired or an incident bundle was dumped. *)
val monitoring_fired : t -> bool

(** {1 Rendering} *)

(** The text report of [reduce-explorer --service] and [tangramc serve].
    Host-clocked numbers print unpadded, so the report's shape depends
    only on which lines exist. *)
val report : t -> string

(** {!Obs.Metrics.to_json} of the registry: [{"rows": [...]}], one
    row per series in (name, labels) order; stable across calls. *)
val to_json : t -> string

(** {!Obs.Metrics.to_prometheus} of the registry: counter and gauge
    families, [tangram_latency_us] histogram families, and, once a
    monitor has snapshotted, the windowed [_window] families. *)
val to_prometheus : t -> string
