(** Resolution of [assume(core(...))] annotations into monitoring
    assumptions — shared by phase 3's monitoring contexts and the
    coverage metrics. *)

type assumption =
  | Aregion of string * int * int  (** region, byte range [lo, hi) assumed core *)
  | Anode of Pointsto.Node.t       (** memory object assumed core (recv buffers) *)

val pp : Format.formatter -> assumption -> unit

val of_func :
  prog:Ssair.Ir.program -> shm:Shm.t -> p1:Phase1.t -> pts:Pointsto.t ->
  Ssair.Ir.func -> assumption list
(** the function's own assumptions (function-level and statement-level
    annotations); region ranges resolved through phase-1 facts and the
    points-to analysis when the annotated pointer is a parameter *)
