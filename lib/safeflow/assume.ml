(** Resolution of [assume(core(...))] annotations into monitoring
    assumptions — shared by phase 3's monitoring contexts and the
    coverage metrics. *)

open Minic
module Offset = Pointsto.Offset

type assumption =
  | Aregion of string * int * int  (** region, byte range [lo, hi) assumed core *)
  | Anode of Pointsto.Node.t       (** memory object assumed core (recv buffers) *)

let pp ppf = function
  | Aregion (r, lo, hi) -> Fmt.pf ppf "core(%s[%d..%d))" r lo hi
  | Anode n -> Fmt.pf ppf "core(%a)" Pointsto.Node.pp n

(** Monitoring assumptions contributed by [f]'s own annotations
    (function-level and statement-level). *)
let of_func ~(prog : Ssair.Ir.program) ~(shm : Shm.t) ~(p1 : Phase1.t)
    ~(pts : Pointsto.t) (f : Ssair.Ir.func) : assumption list =
  let env = prog.Ssair.Ir.env in
  let clause_assumptions = function
    | Annot.Assume_core { ptr; off; size } -> (
      let lo = Annot.eval_aexpr env off in
      let hi = lo + Annot.eval_aexpr env size in
      match Shm.region shm ptr with
      | Some _ -> [ Aregion (ptr, lo, hi) ]
      | None ->
        (* a parameter or local pointer: resolve through the shm facts and
           the points-to analysis *)
        let from_regions =
          Phase1.Rset.fold
            (fun tgt acc ->
              match tgt.Phase1.Rtgt.off with
              | Offset.Byte b -> Aregion (tgt.Phase1.Rtgt.region, b + lo, b + hi) :: acc
              | Offset.Top -> acc)
            (Phase1.param_get p1 (f.fname, ptr))
            []
        in
        let from_nodes =
          Pointsto.Tset.fold
            (fun tgt acc -> Anode tgt.Pointsto.Target.node :: acc)
            (Pointsto.pts_get pts (Pointsto.Kparam (f.fname, ptr)))
            []
        in
        from_regions @ from_nodes)
    | _ -> []
  in
  let fn_level = List.concat_map clause_assumptions f.fannot in
  let stmt_level =
    List.concat_map
      (fun (i : Ssair.Ir.instr) ->
        match i.Ssair.Ir.idesc with
        | Ssair.Ir.Annotation { clause; _ } -> clause_assumptions clause
        | _ -> [])
      (Ssair.Ir.all_instrs f)
  in
  fn_level @ stmt_level
