(** Slack analysis against per-net timing budgets.

    The paper selects critical nets by ranking raw path delays; real flows
    rank by *slack* against a required arrival time.  This module derives a
    budget per net (a virtual clock period, or proportional-to-HPWL budgets
    for a zero-wire-load target), computes worst-slack per net, and offers
    slack-based release selection plus the usual WNS/TNS summary. *)

type budget =
  | Clock of float
      (** every sink must arrive within one period *)
  | Scaled of float
      (** per-net budget = factor × the net's zero-load lower-bound delay
          (driver and sink loads on the best layers, no congestion) — nets
          forced onto slow layers show negative slack *)

type report = {
  slacks : float array;  (** worst slack per net (budget − worst delay) *)
  wns : float;           (** worst negative slack (0 when all met) *)
  tns : float;           (** total negative slack (≤ 0) *)
  violations : int;      (** nets with negative slack *)
}

val analyze : Cpla_route.Assignment.t -> budget -> report
(** Slack of every net at the current assignment (untreed nets get slack
    against their driver-only delay). *)

val select_violating : Cpla_route.Assignment.t -> budget -> max_nets:int -> int array
(** Nets with negative slack, worst first, capped at [max_nets] — a
    slack-driven alternative to {!Critical.select}. *)
