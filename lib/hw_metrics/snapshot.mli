(** Read-side of the registry: one consistent flattening of every
    instrument into (metric, kind, stat, value) rows, reused by all three
    export surfaces — the hwdb [Metrics] table, the [GET /metrics]
    Prometheus text endpoint, and the bench harness's JSON dump. *)

type row = {
  metric : string;
  kind : string;  (** ["counter"] | ["gauge"] | ["histogram"] *)
  stat : string;  (** ["value"] for scalars; ["count"|"sum"|"max"|"p50"|"p90"|"p99"] *)
  value : float;
}

val rows : Registry.t -> row list
(** Registration order; histograms contribute count/sum/max/p50/p90/p99.
    An instrument's [i]-th row is the [i]-th stat of its {!shape} with
    its {!stat_value} [i]. *)

(** {2 The row definition}

    One instrument's rows split into the part fixed at registration and
    the part read per export, so the hwdb [Metrics] export can build the
    name/kind/stat cells once and re-read values only when {!version}
    moves. *)

type shape = {
  sh_metric : string;  (** display name; a labeled counter carries its labels *)
  sh_kind : string;
  sh_stats : string list;  (** one row per stat, in this order *)
}

val shape : string * Registry.instrument -> shape
(** For an entry of {!Registry.instruments}. *)

val stat_value : Registry.instrument -> int -> float
(** [stat_value i k]: the current value of the [k]-th stat in
    [sh_stats] order ([0 <= k < List.length sh_stats]). *)

val version : Registry.instrument -> int
(** A reading that changes whenever a {!stat_value} may: a counter's
    value, a gauge's {!Gauge.writes}, a histogram's count. Equal
    versions mean equal values. An int, so reading one allocates
    nothing. *)

val to_json : Registry.t -> Hw_json.Json.t
(** [{"name": {"kind": "counter", "value": n}, ...,
      "h": {"kind": "histogram", "count": n, "sum": s, "max": m,
            "p50": ..., "p90": ..., "p99": ...}}] *)

val render_prometheus : Registry.t -> string
(** Prometheus text exposition: counters and gauges as scalar samples,
    histograms as summaries ([{quantile="0.5"}] etc. plus [_count]/[_sum]). *)

val float_str : float -> string
(** Prometheus text-format float: plain decimal, no OCaml ["1."]
    artifacts. *)

val escape_label_value : string -> string
(** Escape a label value per the exposition format — exactly backslash,
    double-quote and newline; every other byte passes through verbatim
    (unlike OCaml's [%S]). Shared with any renderer that emits labels
    outside {!render_prometheus} (the fleet observability plane tags
    series with router-supplied ids). *)
