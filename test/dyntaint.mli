(** Dynamic taint tracking on the IR interpreter — differential
    validation of the static analysis.

    Shadow taint (per memory byte, per SSA value) follows one concrete
    execution; monitoring contexts are honored on the executed path.  On
    any run, the observed taint must be a subset of the static report:
    dynamic source sites ⊆ static warnings, dynamic critical-data
    violations ⊆ static error dependencies. *)

open Safeflow

type finding = {
  df_sink : string;  (** e.g. "assert(safe(output))" or "argument 0 of kill" *)
  df_func : string;
  df_loc : Minic.Loc.t;
}

type result = {
  violations : finding list;
  read_sites : (Minic.Loc.t * string) list;
      (** dynamically observed unmonitored non-core reads (site, region) *)
  ret : Ssair.Interp.rtval;
}

val run :
  ?config:Config.t ->
  ?extern_handler:(Ssair.Interp.state -> string -> Ssair.Interp.rtval list -> Ssair.Interp.rtval) ->
  ?max_steps:int ->
  Ssair.Ir.program ->
  Shm.t ->
  result
(** Execute [main] under taint tracking.  A trapped run (fuel exhaustion,
    injected fault) still returns the taint observed so far. *)
