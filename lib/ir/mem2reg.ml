(** SSA construction: promotion of scalar stack slots to registers
    (Cytron-style phi insertion over dominance frontiers, followed by
    renaming along the dominator tree).

    A slot is promotable when (a) its element type is scalar and (b) its
    address is used only as the pointer operand of loads and stores —
    address-taken slots (used in geps, casts, calls, or stored as values)
    stay in memory, which is exactly what the later pointer analyses
    expect. *)

open Minic

type slot_info = {
  si_id : Ir.vid;       (* alloca instruction id *)
  si_ty : Ty.t;
  si_name : string;
  mutable def_blocks : Ir.bid list;
}

(** Find promotable allocas in [f]. *)
let promotable_slots (f : Ir.func) : (Ir.vid, slot_info) Hashtbl.t =
  let slots = Hashtbl.create 16 in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          match i.Ir.idesc with
          | Ir.Alloca { aname; aty } when Ty.is_scalar aty ->
            Hashtbl.replace slots i.Ir.iid
              { si_id = i.Ir.iid; si_ty = aty; si_name = aname; def_blocks = [] }
          | _ -> ())
        b.Ir.instrs)
    f.blocks;
  (* disqualify address-escaping slots and record def blocks (in order of
     first store; [seen_def] keeps the membership test O(1)) *)
  let seen_def = Hashtbl.create 64 in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          let disqualify v =
            match v with Ir.Vreg id -> Hashtbl.remove slots id | _ -> ()
          in
          match i.Ir.idesc with
          | Ir.Load _ -> ()
          | Ir.Store { ptr; sval; _ } -> (
            disqualify sval;
            match ptr with
            | Ir.Vreg id -> (
              match Hashtbl.find_opt slots id with
              | Some si ->
                if not (Hashtbl.mem seen_def (id, b.Ir.bbid)) then begin
                  Hashtbl.replace seen_def (id, b.Ir.bbid) ();
                  si.def_blocks <- b.Ir.bbid :: si.def_blocks
                end
              | None -> ())
            | _ -> ())
          | _ -> List.iter disqualify (Ir.operands_of_instr i))
        b.Ir.instrs;
      List.iter
        (fun v -> match v with Ir.Vreg id -> Hashtbl.remove slots id | _ -> ())
        (Ir.operands_of_term b.Ir.termin);
      List.iter
        (fun (p : Ir.phi) ->
          List.iter
            (fun (_, v) -> match v with Ir.Vreg id -> Hashtbl.remove slots id | _ -> ())
            p.incoming)
        b.Ir.phis)
    f.blocks;
  slots

(** Run promotion on one function.  Returns the number of slots promoted. *)
let run_func (f : Ir.func) : int =
  let slots = promotable_slots f in
  if Hashtbl.length slots = 0 then 0
  else begin
    let tree = Dom.compute f in
    let df = Dom.frontiers f tree in
    let blocks = Ir.block_table f in
    (* fresh ids continue after the maximum existing id *)
    let max_id = ref 0 in
    List.iter
      (fun b ->
        List.iter (fun (p : Ir.phi) -> max_id := max !max_id p.pid) b.Ir.phis;
        List.iter (fun i -> max_id := max !max_id i.Ir.iid) b.Ir.instrs)
      f.blocks;
    let fresh () =
      incr max_id;
      !max_id
    in
    (* phi insertion over iterated dominance frontiers *)
    let phi_var : (Ir.vid, Ir.vid) Hashtbl.t = Hashtbl.create 16 in
    (* phi id → slot id *)
    let has_phi : (Ir.bid * Ir.vid, unit) Hashtbl.t = Hashtbl.create 16 in
    Hashtbl.iter
      (fun slot_id si ->
        let work = Queue.create () in
        List.iter (fun b -> Queue.add b work) si.def_blocks;
        while not (Queue.is_empty work) do
          let b = Queue.pop work in
          let frontier = Option.value ~default:[] (Hashtbl.find_opt df b) in
          List.iter
            (fun fb ->
              if not (Hashtbl.mem has_phi (fb, slot_id)) then begin
                Hashtbl.replace has_phi (fb, slot_id) ();
                let blk = Hashtbl.find blocks fb in
                let pid = fresh () in
                blk.phis <-
                  { Ir.pid; pty = si.si_ty; incoming = []; pname = si.si_name }
                  :: blk.phis;
                Hashtbl.replace phi_var pid slot_id;
                Queue.add fb work
              end)
            frontier
        done)
      slots;
    (* renaming *)
    let replacement : (Ir.vid, Ir.value) Hashtbl.t = Hashtbl.create 64 in
    let rec subst v =
      match v with
      | Ir.Vreg id -> (
        match Hashtbl.find_opt replacement id with Some v' -> subst v' | None -> v)
      | _ -> v
    in
    let deleted : (Ir.vid, unit) Hashtbl.t = Hashtbl.create 64 in
    (* reaching definition of each slot along the dominator-tree path:
       [Hashtbl.add] shadows, and leaving a block removes what it added *)
    let current : (Ir.vid, Ir.value) Hashtbl.t = Hashtbl.create 16 in
    let rec rename bid =
      let blk = Hashtbl.find blocks bid in
      let pushed = ref [] in
      let set_current slot v =
        Hashtbl.add current slot v;
        pushed := slot :: !pushed
      in
      let get_current slot ty =
        match Hashtbl.find_opt current slot with
        | Some v -> v
        | None -> Ir.Vundef ty
      in
      List.iter
        (fun (p : Ir.phi) ->
          match Hashtbl.find_opt phi_var p.pid with
          | Some slot -> set_current slot (Ir.Vreg p.pid)
          | None -> ())
        blk.phis;
      blk.instrs <-
        List.filter
          (fun i ->
            match i.Ir.idesc with
            | Ir.Load { ptr = Ir.Vreg sid; lty } when Hashtbl.mem slots sid ->
              Hashtbl.replace replacement i.Ir.iid (get_current sid lty);
              Hashtbl.replace deleted i.Ir.iid ();
              false
            | Ir.Store { ptr = Ir.Vreg sid; sval; _ } when Hashtbl.mem slots sid ->
              set_current sid (subst sval);
              Hashtbl.replace deleted i.Ir.iid ();
              false
            | Ir.Alloca _ when Hashtbl.mem slots i.Ir.iid ->
              Hashtbl.replace deleted i.Ir.iid ();
              false
            | _ ->
              (* substitute operands *)
              (i.Ir.idesc <-
                (match i.Ir.idesc with
                | Ir.Alloca _ -> i.Ir.idesc
                | Ir.Annotation { clause; aval } ->
                  Ir.Annotation { clause; aval = Option.map subst aval }
                | Ir.Load { ptr; lty } -> Ir.Load { ptr = subst ptr; lty }
                | Ir.Store { ptr; sval; sty } ->
                  Ir.Store { ptr = subst ptr; sval = subst sval; sty }
                | Ir.Binop bo ->
                  Ir.Binop { bo with lhs = subst bo.lhs; rhs = subst bo.rhs }
                | Ir.Unop u -> Ir.Unop { u with operand = subst u.operand }
                | Ir.Cast c -> Ir.Cast { c with cval = subst c.cval }
                | Ir.Gep g -> Ir.Gep { g with base = subst g.base; idx = subst g.idx }
                | Ir.Call c -> Ir.Call { c with args = List.map subst c.args }));
              true)
          blk.instrs;
      blk.termin <-
        (match blk.termin with
        | Ir.Br b -> Ir.Br b
        | Ir.Cbr (v, t, e) -> Ir.Cbr (subst v, t, e)
        | Ir.Switch (v, cs, d) -> Ir.Switch (subst v, cs, d)
        | Ir.Ret (Some v) -> Ir.Ret (Some (subst v))
        | (Ir.Ret None | Ir.Unreachable) as t -> t);
      (* feed phi operands of successors *)
      List.iter
        (fun succ ->
          match Hashtbl.find_opt blocks succ with
          | None -> ()
          | Some sblk ->
            List.iter
              (fun (p : Ir.phi) ->
                match Hashtbl.find_opt phi_var p.pid with
                | Some slot ->
                  let v = get_current slot p.pty in
                  p.incoming <- (bid, v) :: p.incoming
                | None -> ())
              sblk.phis)
        (Ir.successors f blk);
      (* recurse over dominator-tree children *)
      List.iter rename (Dom.children tree bid);
      List.iter (Hashtbl.remove current) !pushed
    in
    rename f.fentry;
    Hashtbl.length slots
  end

(** Promote every function of [p]; returns total slots promoted. *)
let run (p : Ir.program) : int =
  List.fold_left (fun acc f -> acc + run_func f) 0 p.funcs
