(** Lowering from the typed AST to the IR.

    Strategy (classic "alloca everything, then promote"): every local and
    parameter receives a stack slot; expressions evaluate to values and
    lvalues to addresses; short-circuit operators and the ternary operator
    lower to control flow through a temporary slot.  {!Mem2reg} then
    rewrites promotable slots into SSA registers. *)

open Minic

type builder = {
  env : Ty.env;
  mutable next_id : int;
  mutable next_bid : int;
  blocks : (Ir.bid, Ir.block) Hashtbl.t;
  mutable cur : Ir.bid;
  mutable sealed : bool;  (** current block already has a terminator *)
  slots : (string, Ir.vid * Ty.t) Hashtbl.t;
      (** unique local name → alloca id and allocated type *)
  mutable break_targets : Ir.bid list;
  mutable continue_targets : Ir.bid list;
  globals : (string, Ty.t) Hashtbl.t;
}

let fresh_id b =
  let id = b.next_id in
  b.next_id <- id + 1;
  id

let new_block b =
  let bid = b.next_bid in
  b.next_bid <- bid + 1;
  Hashtbl.replace b.blocks bid
    { Ir.bbid = bid; phis = []; instrs = []; termin = Ir.Unreachable };
  bid

let cur_block b = Hashtbl.find b.blocks b.cur

let switch_to b bid =
  b.cur <- bid;
  b.sealed <- false

(** Append an instruction to the current block, returning its result id.
    Blocks collect their instructions newest first; {!lower_func}
    restores source order once the function is lowered. *)
let emit ?(loc = Loc.dummy) b ity idesc =
  let iid = fresh_id b in
  let i = { Ir.iid; idesc; ity; iloc = loc } in
  if not b.sealed then begin
    let blk = cur_block b in
    blk.instrs <- i :: blk.instrs
  end;
  iid

let emit_v ?loc b ity idesc = Ir.Vreg (emit ?loc b ity idesc)

let terminate b term =
  if not b.sealed then begin
    (cur_block b).termin <- term;
    b.sealed <- true
  end

(* -- Types of values ----------------------------------------------------- *)

let bool_of v b ty loc =
  (* normalize a scalar to 0/1 int by comparing against zero *)
  let zero =
    match Ty.resolve b.env ty with
    | Ty.Float | Ty.Double -> Ir.Vfloat (0.0, ty)
    | Ty.Ptr _ -> Ir.Vint (0L, Ty.Long)
    | _ -> Ir.Vint (0L, ty)
  in
  emit_v ~loc b Ty.Int (Ir.Binop { op = Ast.Ne; bty = Ty.Int; lhs = v; rhs = zero })

(* -- Expression lowering -------------------------------------------------- *)

(** Lower an lvalue expression to its address (a value of pointer type). *)
let rec lower_addr b (e : Tast.texpr) : Ir.value =
  let loc = e.tloc in
  match e.tdesc with
  | Tast.Tlocal x -> Ir.Vreg (fst (Hashtbl.find b.slots x))
  | Tast.Tglobal g -> Ir.Vglobal g
  | Tast.Tderef p -> lower_value b p
  | Tast.Tindex (base, idx) ->
    let idx_v = lower_value b idx in
    let elem_ty = e.tty in
    let base_v =
      match Ty.resolve b.env base.tty with
      | Ty.Array _ -> lower_addr b base
      | _ -> lower_value b base
    in
    emit_v ~loc b (Ty.Ptr elem_ty) (Ir.Gep { base = base_v; kind = Ir.Gindex elem_ty; idx = idx_v })
  | Tast.Tfield (s, fname) ->
    let sname =
      match Ty.resolve b.env s.tty with
      | Ty.Struct n -> n
      | t -> Loc.error loc "field access on %a" Ty.pp t
    in
    let base_v = lower_addr b s in
    emit_v ~loc b (Ty.Ptr e.tty)
      (Ir.Gep { base = base_v; kind = Ir.Gfield (sname, fname); idx = Ir.Vint (0L, Ty.Int) })
  | _ -> Loc.error loc "not an lvalue"

(** Lower an expression to a value. *)
and lower_value b (e : Tast.texpr) : Ir.value =
  let loc = e.tloc in
  match e.tdesc with
  | Tast.Tint n -> Ir.Vint (n, e.tty)
  | Tast.Tfloat x -> Ir.Vfloat (x, e.tty)
  | Tast.Tstr s -> Ir.Vstr s
  | Tast.Tlocal _ | Tast.Tglobal _ | Tast.Tderef _ | Tast.Tindex _ | Tast.Tfield _ ->
    let addr = lower_addr b e in
    emit_v ~loc b e.tty (Ir.Load { ptr = addr; lty = e.tty })
  | Tast.Taddr lv -> lower_addr b lv
  | Tast.Tdecay arr ->
    let addr = lower_addr b arr in
    let elem_ty = match e.tty with Ty.Ptr t -> t | _ -> Ty.Void in
    emit_v ~loc b e.tty
      (Ir.Gep { base = addr; kind = Ir.Gindex elem_ty; idx = Ir.Vint (0L, Ty.Int) })
  | Tast.Tunop (op, a) ->
    let v = lower_value b a in
    emit_v ~loc b e.tty (Ir.Unop { uop = op; uty = e.tty; operand = v })
  | Tast.Tbinop (Ast.Land, a, bexp) -> lower_shortcircuit b ~is_and:true a bexp loc
  | Tast.Tbinop (Ast.Lor, a, bexp) -> lower_shortcircuit b ~is_and:false a bexp loc
  | Tast.Tbinop (op, a, bexp) -> (
    let va = lower_value b a in
    let vb = lower_value b bexp in
    (* pointer arithmetic becomes gep *)
    match (op, Ty.resolve b.env a.tty, Ty.resolve b.env bexp.tty) with
    | Ast.Add, Ty.Ptr elt, ti when Ty.is_integer ti ->
      emit_v ~loc b e.tty (Ir.Gep { base = va; kind = Ir.Gindex elt; idx = vb })
    | Ast.Sub, Ty.Ptr elt, ti when Ty.is_integer ti ->
      let neg = emit_v ~loc b ti (Ir.Unop { uop = Ast.Neg; uty = ti; operand = vb }) in
      emit_v ~loc b e.tty (Ir.Gep { base = va; kind = Ir.Gindex elt; idx = neg })
    | _ -> emit_v ~loc b e.tty (Ir.Binop { op; bty = e.tty; lhs = va; rhs = vb }))
  | Tast.Tassign (lhs, rhs) ->
    let v = lower_value b rhs in
    let addr = lower_addr b lhs in
    ignore (emit ~loc b Ty.Void (Ir.Store { ptr = addr; sval = v; sty = lhs.tty }));
    v
  | Tast.Tcall (fn, args) ->
    let vs = List.map (lower_value b) args in
    emit_v ~loc b e.tty (Ir.Call { callee = fn; args = vs; rty = e.tty })
  | Tast.Tcast (ty, a) ->
    let v = lower_value b a in
    emit_v ~loc b ty (Ir.Cast { from_ty = a.tty; to_ty = ty; cval = v })
  | Tast.Tcond (c, x, y) ->
    (* ternary through a temporary slot; mem2reg turns it into a phi *)
    let slot = emit ~loc b (Ty.Ptr e.tty) (Ir.Alloca { aname = "$cond"; aty = e.tty }) in
    Hashtbl.replace b.slots (Fmt.str "$cond%d" slot) (slot, e.tty);
    let cv = lower_value b c in
    let cb = bool_of cv b c.tty loc in
    let then_b = new_block b in
    let else_b = new_block b in
    let join_b = new_block b in
    terminate b (Ir.Cbr (cb, then_b, else_b));
    switch_to b then_b;
    let vx = lower_value b x in
    ignore (emit ~loc b Ty.Void (Ir.Store { ptr = Ir.Vreg slot; sval = vx; sty = e.tty }));
    terminate b (Ir.Br join_b);
    switch_to b else_b;
    let vy = lower_value b y in
    ignore (emit ~loc b Ty.Void (Ir.Store { ptr = Ir.Vreg slot; sval = vy; sty = e.tty }));
    terminate b (Ir.Br join_b);
    switch_to b join_b;
    emit_v ~loc b e.tty (Ir.Load { ptr = Ir.Vreg slot; lty = e.tty })

and lower_shortcircuit b ~is_and lhs rhs loc =
  let slot = emit ~loc b (Ty.Ptr Ty.Int) (Ir.Alloca { aname = "$sc"; aty = Ty.Int }) in
  Hashtbl.replace b.slots (Fmt.str "$sc%d" slot) (slot, Ty.Int);
  let va = lower_value b lhs in
  let ba = bool_of va b lhs.Tast.tty loc in
  ignore (emit ~loc b Ty.Void (Ir.Store { ptr = Ir.Vreg slot; sval = ba; sty = Ty.Int }));
  let rhs_b = new_block b in
  let join_b = new_block b in
  if is_and then terminate b (Ir.Cbr (ba, rhs_b, join_b))
  else terminate b (Ir.Cbr (ba, join_b, rhs_b));
  switch_to b rhs_b;
  let vb = lower_value b rhs in
  let bb = bool_of vb b rhs.Tast.tty loc in
  ignore (emit ~loc b Ty.Void (Ir.Store { ptr = Ir.Vreg slot; sval = bb; sty = Ty.Int }));
  terminate b (Ir.Br join_b);
  switch_to b join_b;
  emit_v ~loc b Ty.Int (Ir.Load { ptr = Ir.Vreg slot; lty = Ty.Int })

(* -- Statement lowering ---------------------------------------------------- *)

let rec lower_stmts b stmts = List.iter (lower_stmt b) stmts

and lower_stmt b (s : Tast.tstmt) =
  let loc = s.tsloc in
  match s.tsdesc with
  | Tast.TSexpr e -> ignore (lower_value b e)
  | Tast.TSdecl (_, _, None) -> ()
  | Tast.TSdecl (x, ty, Some init) ->
    let v = lower_value b init in
    let slot, _ = Hashtbl.find b.slots x in
    ignore (emit ~loc b Ty.Void (Ir.Store { ptr = Ir.Vreg slot; sval = v; sty = ty }))
  | Tast.TSif (c, t, e) ->
    let cv = lower_value b c in
    let cb = bool_of cv b c.Tast.tty loc in
    let then_b = new_block b in
    let else_b = new_block b in
    let join_b = new_block b in
    terminate b (Ir.Cbr (cb, then_b, else_b));
    switch_to b then_b;
    lower_stmts b t;
    terminate b (Ir.Br join_b);
    switch_to b else_b;
    lower_stmts b e;
    terminate b (Ir.Br join_b);
    switch_to b join_b
  | Tast.TSwhile (c, body) ->
    let head = new_block b in
    let body_b = new_block b in
    let exit_b = new_block b in
    terminate b (Ir.Br head);
    switch_to b head;
    let cv = lower_value b c in
    let cb = bool_of cv b c.Tast.tty loc in
    terminate b (Ir.Cbr (cb, body_b, exit_b));
    b.break_targets <- exit_b :: b.break_targets;
    b.continue_targets <- head :: b.continue_targets;
    switch_to b body_b;
    lower_stmts b body;
    terminate b (Ir.Br head);
    b.break_targets <- List.tl b.break_targets;
    b.continue_targets <- List.tl b.continue_targets;
    switch_to b exit_b
  | Tast.TSdo (body, c) ->
    let body_b = new_block b in
    let cond_b = new_block b in
    let exit_b = new_block b in
    terminate b (Ir.Br body_b);
    b.break_targets <- exit_b :: b.break_targets;
    b.continue_targets <- cond_b :: b.continue_targets;
    switch_to b body_b;
    lower_stmts b body;
    terminate b (Ir.Br cond_b);
    switch_to b cond_b;
    let cv = lower_value b c in
    let cb = bool_of cv b c.Tast.tty loc in
    terminate b (Ir.Cbr (cb, body_b, exit_b));
    b.break_targets <- List.tl b.break_targets;
    b.continue_targets <- List.tl b.continue_targets;
    switch_to b exit_b
  | Tast.TSfor (init, cond, step, body) ->
    Option.iter (lower_stmt b) init;
    let head = new_block b in
    let body_b = new_block b in
    let step_b = new_block b in
    let exit_b = new_block b in
    terminate b (Ir.Br head);
    switch_to b head;
    (match cond with
    | Some c ->
      let cv = lower_value b c in
      let cb = bool_of cv b c.Tast.tty loc in
      terminate b (Ir.Cbr (cb, body_b, exit_b))
    | None -> terminate b (Ir.Br body_b));
    b.break_targets <- exit_b :: b.break_targets;
    b.continue_targets <- step_b :: b.continue_targets;
    switch_to b body_b;
    lower_stmts b body;
    terminate b (Ir.Br step_b);
    switch_to b step_b;
    Option.iter (lower_stmt b) step;
    terminate b (Ir.Br head);
    b.break_targets <- List.tl b.break_targets;
    b.continue_targets <- List.tl b.continue_targets;
    switch_to b exit_b
  | Tast.TSswitch (e, cases) ->
    let v = lower_value b e in
    let exit_b = new_block b in
    (* one block per case; fallthrough chains to the next case block *)
    let case_blocks = List.map (fun c -> (c, new_block b)) cases in
    let default_bid =
      match List.find_opt (fun (c, _) -> c.Tast.tcval = None) case_blocks with
      | Some (_, bid) -> bid
      | None -> exit_b
    in
    let table =
      List.filter_map
        (fun (c, bid) -> Option.map (fun v -> (v, bid)) c.Tast.tcval)
        case_blocks
    in
    terminate b (Ir.Switch (v, table, default_bid));
    b.break_targets <- exit_b :: b.break_targets;
    let rec emit_cases = function
      | [] -> ()
      | (c, bid) :: rest ->
        switch_to b bid;
        lower_stmts b c.Tast.tcbody;
        let next = match rest with (_, nb) :: _ -> nb | [] -> exit_b in
        terminate b (Ir.Br next);
        emit_cases rest
    in
    emit_cases case_blocks;
    b.break_targets <- List.tl b.break_targets;
    switch_to b exit_b
  | Tast.TSreturn None -> terminate b (Ir.Ret None)
  | Tast.TSreturn (Some e) ->
    let v = lower_value b e in
    terminate b (Ir.Ret (Some v))
  | Tast.TSbreak -> (
    match b.break_targets with
    | t :: _ -> terminate b (Ir.Br t)
    | [] -> Loc.error loc "break outside loop")
  | Tast.TScontinue -> (
    match b.continue_targets with
    | t :: _ -> terminate b (Ir.Br t)
    | [] -> Loc.error loc "continue outside loop")
  | Tast.TSblock body -> lower_stmts b body
  | Tast.TSannot clauses ->
    List.iter
      (fun c ->
        (* assert(safe(x)) reads x here so the taint analysis sees the
           value live at this program point *)
        let aval =
          match c with
          | Annot.Assert_safe x -> (
            match Hashtbl.find_opt b.slots x with
            | Some (slot, ty) ->
              (* the variable's current value: a load that mem2reg will
                 rewrite into the reaching SSA definition *)
              Some (emit_v ~loc b ty (Ir.Load { ptr = Ir.Vreg slot; lty = ty }))
            | None -> None)
          | _ -> None
        in
        ignore (emit ~loc b Ty.Void (Ir.Annotation { clause = c; aval })))
      clauses

(* -- Functions and programs ------------------------------------------------ *)

(** Remove blocks not reachable from the entry (created by code after
    returns, breaks, etc.). *)
let prune_unreachable (f : Ir.func) =
  let reachable = Ir.reverse_postorder f in
  let keep = Hashtbl.create 16 in
  List.iter (fun bid -> Hashtbl.replace keep bid ()) reachable;
  f.blocks <- List.filter (fun b -> Hashtbl.mem keep b.Ir.bbid) f.blocks

let lower_func env globals (tf : Tast.tfunc) : Ir.func =
  let b =
    {
      env;
      next_id = 0;
      next_bid = 0;
      blocks = Hashtbl.create 16;
      cur = 0;
      sealed = false;
      slots = Hashtbl.create 16;
      break_targets = [];
      continue_targets = [];
      globals;
    }
  in
  let entry = new_block b in
  switch_to b entry;
  (* parameter and local slots *)
  List.iter
    (fun (name, ty) ->
      let slot = emit b (Ty.Ptr ty) (Ir.Alloca { aname = name; aty = ty }) in
      Hashtbl.replace b.slots name (slot, ty);
      ignore (emit b Ty.Void (Ir.Store { ptr = Ir.Vreg slot; sval = Ir.Vparam name; sty = ty })))
    tf.tf_params;
  List.iter
    (fun (name, ty) ->
      let slot = emit b (Ty.Ptr ty) (Ir.Alloca { aname = name; aty = ty }) in
      Hashtbl.replace b.slots name (slot, ty))
    tf.tf_locals;
  (* function-level annotations become pseudo-instructions at entry *)
  List.iter
    (fun c -> ignore (emit b Ty.Void (Ir.Annotation { clause = c; aval = None })))
    tf.tf_annot;
  lower_stmts b tf.tf_body;
  (* implicit return *)
  (match tf.tf_ret with
  | Ty.Void -> terminate b (Ir.Ret None)
  | ty -> terminate b (Ir.Ret (Some (Ir.Vundef ty))));
  let blocks =
    Hashtbl.fold (fun _ blk acc -> blk :: acc) b.blocks []
    |> List.sort (fun x y -> compare x.Ir.bbid y.Ir.bbid)
  in
  List.iter (fun blk -> blk.Ir.instrs <- List.rev blk.Ir.instrs) blocks;
  let f =
    {
      Ir.fname = tf.tf_name;
      fret = tf.tf_ret;
      fparams = tf.tf_params;
      blocks;
      fentry = entry;
      fannot = tf.tf_annot;
      floc = tf.tf_loc;
    }
  in
  prune_unreachable f;
  f

(** Lower a typed program to IR (pre-SSA: locals still in memory). *)
let lower (prog : Tast.program) : Ir.program =
  let globals_tbl = Hashtbl.create 32 in
  List.iter
    (fun g -> Hashtbl.replace globals_tbl g.Tast.tg_name g.Tast.tg_ty)
    prog.p_globals;
  {
    Ir.env = prog.p_env;
    globals =
      List.map (fun g -> (g.Tast.tg_name, g.Tast.tg_ty, g.Tast.tg_init)) prog.p_globals;
    externs = prog.p_externs;
    funcs = List.map (lower_func prog.p_env globals_tbl) prog.p_funcs;
  }
