(** Alert rules evaluated over the {!Timeseries} history
    (DESIGN.md §16).

    Static thresholds with a hold period, and multi-window SLO
    burn-rate rules: for a success-ratio SLI in [0,1], the burn rate
    over a window is [(1 − avg SLI) / (1 − objective)] — how many
    times faster than budget the error budget is burning — and the
    rule fires only when both the short and the long window exceed the
    factor (fast on incidents, quiet on blips).

    Deterministic: {!eval} takes [~now] and reads only the
    time-series; no clock or I/O anywhere in the module. Suppression
    annotates, it does not mask — a suppressed rule keeps evaluating
    and reporting its true state. *)

type cmp = Lt | Gt

type rule =
  | Threshold of {
      metric : string;
      cmp : cmp;
      bound : float;
      hold : float;
          (** seconds the condition must persist before firing; 0
              fires on the first bad evaluation *)
      window : float;
          (** averaging window for the observed value; 0 uses the
              latest sample *)
    }
  | Burn_rate of {
      metric : string;  (** a success-ratio SLI series in [0,1] *)
      objective : float;  (** e.g. 0.99 *)
      short_window : float;
      long_window : float;
      factor : float;
    }

type state = Inactive | Pending of float | Firing of float | Resolved of float
(** [Pending]/[Firing]/[Resolved] carry the evaluation time that
    entered the state ([Firing] keeps its pending-start, so "since"
    names the beginning of the incident, not of the page). *)

type t

type info = {
  i_name : string;
  i_rule : rule;
  i_state : state;
  i_value : float option;  (** last evaluated value, if data existed *)
  i_suppressed : string option;
}

val create : rules:(string * rule) list -> t
(** The rule set is fixed at creation; only states and suppression
    annotations mutate afterwards (mutex-guarded). *)

val default_rules : unit -> (string * rule) list
(** The stock set over the sampler's derived SLI series: checkout p99
    latency and drift-score thresholds, quorum-write and scrape-up
    burn rates, plus an immediate [cluster_scrape_up] threshold so a
    dead peer fires within one sampling step. Burn-rate windows are
    300 s and 3600 s, thresholds hold for 60 s, and the bounds are a
    2.0 s checkout p99 and a drift score of 1.0. *)

val rule_names : t -> string list

val suppress : t -> name:string -> reason:string -> unit
val unsuppress : t -> name:string -> unit

val eval : t -> ts:Timeseries.t -> now:float -> unit
(** One evaluation pass. A series with no data in scope cannot fire
    its rule (and resolves it if it was firing). Time-series values
    are read before this module's mutex is taken, so the two locks
    never nest. *)

val report : t -> info list
val render : t -> string
(** One grep-friendly line per rule:
    [<name> <state> since=<t|-> value=<v|-> [suppressed="reason"]] —
    the [GET /alerts] body. *)

val state_name : state -> string
