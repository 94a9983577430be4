(* Differential oracle for phase 3: the paper-shaped dense fixpoint.

   Every pass re-scans every instruction of every discovered (function,
   context) pair and applies the taint rules below until no taint,
   warning or pair changes.  It shares the analysis state, the pair
   roots and the dependency collection with the product engine
   ({!Safeflow.Vfgraph}, which transcribes [analyze_pair] rule for rule
   into static edges) and differs only in how the closure is reached,
   so the two must agree on warnings, dependencies and pair universe.
   [analyze] drives it through the public [Driver.stage_*] functions
   and assembles the report the way [Driver.analyze] does. *)

open Safeflow
open Minic
module Offset = Pointsto.Offset
open Phase3

let taint changed table e ~parent ~why =
  if not (Hashtbl.mem table e) then begin
    Hashtbl.replace table e { parent; why };
    changed := true
  end

let warn (st : state) changed (f : Ssair.Ir.func) ctx loc region =
  let key = (loc, region) in
  if not (Hashtbl.mem st.warnings key) then begin
    Hashtbl.replace st.warnings key
      { Report.w_func = f.fname; w_region = region; w_loc = loc; w_context = Ctx.names ctx };
    changed := true
  end

let first_tainted fname ctx vs table =
  List.find_map
    (fun v ->
      match value_entity fname ctx v with
      | Some e when Hashtbl.mem table e -> Some e
      | _ -> None)
    vs

(* One function under one context: records taints, warnings and newly
   discovered (callee, context) pairs, setting [changed] on any news. *)
let analyze_pair (st : state) changed (f : Ssair.Ir.func) (ctx : Ctx.t) =
  let taint = taint changed in
  let env = st.prog.Ssair.Ir.env in
  let fname = f.Ssair.Ir.fname in
  let blk_ctrl = block_control_taint st f ctx in
  let in_tainted_block bid = Hashtbl.mem blk_ctrl bid in
  List.iter
    (fun (b : Ssair.Ir.block) ->
      (* phis: data from incomings, control from the block's merge *)
      List.iter
        (fun (p : Ssair.Ir.phi) ->
          let self = Eval (fname, ctx, p.Ssair.Ir.pid) in
          List.iter
            (fun (_, v) ->
              match value_entity fname ctx v with
              | Some e when data_tainted st e ->
                taint st.data self ~parent:(Some e) ~why:"phi merge"
              | Some e when ctrl_tainted st e ->
                taint st.ctrl self ~parent:(Some e) ~why:"phi merge"
              | _ -> ())
            p.Ssair.Ir.incoming;
          (* implicit flow: the phi's value is selected by the branches
             controlling its incoming edges *)
          let incoming_controlled =
            in_tainted_block b.Ssair.Ir.bbid
            || List.exists
                 (fun (pred, _) ->
                   in_tainted_block pred
                   ||
                   match Ssair.Ir.block_opt f pred with
                   | Some pblk -> (
                     match pblk.Ssair.Ir.termin with
                     | Ssair.Ir.Cbr (Ssair.Ir.Vreg cid, _, _)
                     | Ssair.Ir.Switch (Ssair.Ir.Vreg cid, _, _) ->
                       (not (branch_decided st f pblk))
                       &&
                       let ce = Eval (fname, ctx, cid) in
                       data_tainted st ce || ctrl_tainted st ce
                     | _ -> false)
                   | None -> false)
                 p.Ssair.Ir.incoming
          in
          if st.config.Config.control_deps && incoming_controlled then
            taint st.ctrl self ~parent:None
              ~why:"phi merges paths controlled by an unsafe condition")
        b.Ssair.Ir.phis;
      List.iter
        (fun (i : Ssair.Ir.instr) ->
          let self = Eval (fname, ctx, i.Ssair.Ir.iid) in
          let flow_operands vs why =
            (match first_tainted fname ctx vs st.data with
            | Some e -> taint st.data self ~parent:(Some e) ~why
            | None -> ());
            match first_tainted fname ctx vs st.ctrl with
            | Some e -> taint st.ctrl self ~parent:(Some e) ~why
            | None -> ()
          in
          match i.Ssair.Ir.idesc with
          | Ssair.Ir.Alloca _ -> ()
          | Ssair.Ir.Load { ptr; lty } ->
            (* 1. shared-memory reads *)
            let shm_targets = Phase1.shm_targets st.p1 f ptr in
            Phase1.Rset.iter
              (fun tgt ->
                let rname = tgt.Phase1.Rtgt.region in
                match Shm.region st.shm rname with
                | None -> ()
                | Some r ->
                  if r.Shm.r_noncore then begin
                    let covered =
                      match tgt.Phase1.Rtgt.off with
                      | Offset.Byte b ->
                        Ctx.covers_region ctx rname ~lo:b ~hi:(b + Ty.sizeof env lty)
                      | Offset.Top ->
                        Ctx.covers_region ctx rname ~lo:0 ~hi:r.Shm.r_size
                    in
                    if not covered then begin
                      warn st changed f ctx i.Ssair.Ir.iloc rname;
                      taint st.data self ~parent:(Some (Eregion rname))
                        ~why:
                          (Fmt.str "unmonitored read of non-core region %s at %a" rname
                             Loc.pp i.Ssair.Ir.iloc)
                    end
                  end
                  else begin
                    (* core region: safe unless some unsafe value was
                       stored into it *)
                    let node = Pointsto.Node.Nshm rname in
                    if data_tainted st (Enode node) && not (Ctx.covers_node ctx node) then
                      taint st.data self ~parent:(Some (Enode node))
                        ~why:"read of core region holding an unsafe value"
                  end)
              shm_targets;
            (* 2. ordinary memory — only when the address is not a
               shared-memory pointer: shm reads are governed by the region
               model above *)
            if Phase1.Rset.is_empty shm_targets then
              Pointsto.Tset.iter
                (fun tgt ->
                  let node = tgt.Pointsto.Target.node in
                  if not (Ctx.covers_node ctx node) then begin
                    if data_tainted st (Enode node) then
                      taint st.data self ~parent:(Some (Enode node))
                        ~why:"load from unsafe memory object";
                    if ctrl_tainted st (Enode node) then
                      taint st.ctrl self ~parent:(Some (Enode node))
                        ~why:"load from control-unsafe memory object"
                  end)
                (Pointsto.points_to st.pts f ptr);
            (* 3. tainted address: attacker-chosen cell *)
            flow_operands [ ptr ] "load through unsafe pointer"
          | Ssair.Ir.Store { ptr; sval; _ } ->
            let mark table parent why =
              (* taint every object the store may write; shm-pointer
                 stores taint the region node, not the opaque segment *)
              let shm = Phase1.shm_targets st.p1 f ptr in
              if Phase1.Rset.is_empty shm then
                Pointsto.Tset.iter
                  (fun tgt -> taint table (Enode tgt.Pointsto.Target.node) ~parent ~why)
                  (Pointsto.points_to st.pts f ptr)
              else
                Phase1.Rset.iter
                  (fun tgt ->
                    taint table
                      (Enode (Pointsto.Node.Nshm tgt.Phase1.Rtgt.region))
                      ~parent ~why)
                  shm
            in
            (match value_entity fname ctx sval with
            | Some e when data_tainted st e -> mark st.data (Some e) "unsafe value stored"
            | Some e when ctrl_tainted st e ->
              mark st.ctrl (Some e) "control-unsafe value stored"
            | _ -> ());
            if st.config.Config.control_deps && in_tainted_block b.Ssair.Ir.bbid then
              mark st.ctrl None "store controlled by an unsafe condition"
          | Ssair.Ir.Binop { lhs; rhs; _ } -> flow_operands [ lhs; rhs ] "arithmetic"
          | Ssair.Ir.Unop { operand; _ } -> flow_operands [ operand ] "arithmetic"
          | Ssair.Ir.Cast { cval; _ } -> flow_operands [ cval ] "cast"
          | Ssair.Ir.Gep { base; idx; _ } -> flow_operands [ base; idx ] "address arithmetic"
          | Ssair.Ir.Annotation _ -> ()
          | Ssair.Ir.Call { callee; args; _ } -> (
            match Hashtbl.find_opt st.fidx callee with
            | Some g ->
              let gctx =
                if st.config.Config.context_sensitive then
                  Ctx.union ctx (Ctx.make (own_assumptions st g))
                else Ctx.make (own_assumptions st g)
              in
              if not (Hashtbl.mem st.pairs (g.Ssair.Ir.fname, gctx)) then begin
                Hashtbl.replace st.pairs (g.Ssair.Ir.fname, gctx) ();
                changed := true
              end;
              List.iteri
                (fun k arg ->
                  match List.nth_opt g.Ssair.Ir.fparams k with
                  | Some (pname, _) ->
                    let pe = Eparam (g.Ssair.Ir.fname, gctx, pname) in
                    (match value_entity fname ctx arg with
                    | Some e when data_tainted st e ->
                      taint st.data pe ~parent:(Some e)
                        ~why:(Fmt.str "argument %d of call to %s" k callee)
                    | Some e when ctrl_tainted st e ->
                      taint st.ctrl pe ~parent:(Some e)
                        ~why:(Fmt.str "argument %d of call to %s" k callee)
                    | _ -> ());
                    if st.config.Config.control_deps && in_tainted_block b.Ssair.Ir.bbid
                    then
                      taint st.ctrl pe ~parent:None
                        ~why:"call controlled by an unsafe condition"
                  | None -> ())
                args;
              let re = Eret (g.Ssair.Ir.fname, gctx) in
              if data_tainted st re then
                taint st.data self ~parent:(Some re)
                  ~why:(Fmt.str "return value of %s" callee);
              if ctrl_tainted st re then
                taint st.ctrl self ~parent:(Some re)
                  ~why:(Fmt.str "return value of %s" callee)
            | None ->
              (* extern; message passing: recv through a non-core socket
                 taints the buffer *)
              if List.mem callee st.config.Config.recv_functions then begin
                let socket_is_noncore =
                  match args with
                  | Ssair.Ir.Vparam p :: _ -> Hashtbl.mem st.noncore_sockets p
                  | Ssair.Ir.Vreg id :: _ -> (
                    (* a load of an annotated global *)
                    match Hashtbl.find_opt (Ssair.Ir.def_table f) id with
                    | Some
                        (Ssair.Ir.Def_instr
                          ({ idesc = Ssair.Ir.Load { ptr = Ssair.Ir.Vglobal g; _ }; _ }, _))
                      ->
                      Hashtbl.mem st.noncore_sockets g
                    | _ -> false)
                  | _ -> false
                in
                if socket_is_noncore then
                  match args with
                  | _ :: buf :: _ ->
                    Pointsto.Tset.iter
                      (fun tgt ->
                        taint st.data (Enode tgt.Pointsto.Target.node)
                          ~parent:(Some (Eregion (Fmt.str "socket via %s" callee)))
                          ~why:"data received from a non-core component")
                      (Pointsto.points_to st.pts f buf)
                  | _ -> ()
              end;
              (* conservative: extern results carry their arguments' taint *)
              flow_operands args (Fmt.str "through external call %s" callee)))
        b.Ssair.Ir.instrs;
      (* returns *)
      match b.Ssair.Ir.termin with
      | Ssair.Ir.Ret (Some v) ->
        let re = Eret (fname, ctx) in
        (match value_entity fname ctx v with
        | Some e when data_tainted st e -> taint st.data re ~parent:(Some e) ~why:"returned"
        | Some e when ctrl_tainted st e -> taint st.ctrl re ~parent:(Some e) ~why:"returned"
        | _ -> ());
        if st.config.Config.control_deps && in_tainted_block b.Ssair.Ir.bbid then
          taint st.ctrl re ~parent:None ~why:"returned value selected by an unsafe condition"
      | _ -> ())
    f.Ssair.Ir.blocks

let run ?(config = Config.default) ?absint (prog : Ssair.Ir.program) (shm : Shm.t)
    (p1 : Phase1.t) (pts : Pointsto.t) : Phase3.result =
  let st = make_state ~config ?absint prog shm p1 pts in
  List.iter
    (fun ((f : Ssair.Ir.func), ctx) -> Hashtbl.replace st.pairs (f.Ssair.Ir.fname, ctx) ())
    (root_pairs st);
  let changed = ref true and passes = ref 0 in
  while !changed do
    changed := false;
    incr passes;
    let pairs = Hashtbl.fold (fun k () acc -> k :: acc) st.pairs [] in
    List.iter
      (fun (fname, ctx) ->
        match Hashtbl.find_opt st.fidx fname with
        | Some f when not (Phase1.is_exempt p1 fname) -> analyze_pair st changed f ctx
        | _ -> ())
      pairs
  done;
  {
    warnings =
      Hashtbl.fold (fun _ w acc -> w :: acc) st.warnings []
      |> List.stable_sort Report.compare_warning;
    dependencies = collect_dependencies st;
    passes = !passes;
    pair_count = Hashtbl.length st.pairs;
    engine_stats = [];
    taint_state = st;
  }

(* [Driver.analyze]'s canonical report order: (file, line, fingerprint),
   then the natural order. *)
let canonicalize (fctx : Fingerprint.ctx) (r : Report.t) : Report.t =
  let by_fp to_finding natural a b =
    let c = Report.compare_loc (Fingerprint.loc (to_finding a)) (Fingerprint.loc (to_finding b)) in
    if c <> 0 then c
    else
      let c =
        compare
          (Fingerprint.compute fctx (to_finding a))
          (Fingerprint.compute fctx (to_finding b))
      in
      if c <> 0 then c else natural a b
  in
  {
    r with
    Report.violations =
      List.stable_sort
        (by_fp (fun v -> Fingerprint.Violation v) Report.compare_violation)
        r.Report.violations;
    warnings =
      List.stable_sort
        (by_fp (fun w -> Fingerprint.Warning w) Report.compare_warning)
        r.Report.warnings;
    dependencies =
      List.stable_sort
        (by_fp (fun d -> Fingerprint.Dependency d) Report.compare_dependency)
        r.Report.dependencies;
    infos =
      List.stable_sort (by_fp (fun i -> Fingerprint.Info i) Report.compare_info) r.Report.infos;
  }

(* The whole pipeline with this oracle as phase 3: the same stages, in
   the same order, as a cache-less [Driver.analyze]. *)
let analyze ?(config = Config.default) ?file (src : string) : Driver.analysis =
  let p = Driver.prepare_source ?file src in
  let shm = Driver.stage_shm p in
  let p1 = Driver.stage_phase1 ~config p shm in
  let absint = Driver.stage_absint ~config p in
  let ph2 = Driver.stage_phase2 ~config ?absint p p1 in
  let pts = Driver.stage_pointsto p in
  let ph3 = run ~config ?absint p.Driver.ir shm p1 pts in
  let report =
    canonicalize
      (Fingerprint.ctx_of_program p.Driver.ir)
      {
        Report.violations = ph2.Phase2.violations;
        warnings = ph3.warnings;
        dependencies = ph3.dependencies;
        infos = (if config.Config.verbose then ph2.Phase2.infos else []);
        regions =
          List.map (fun r -> (r.Shm.r_name, r.Shm.r_size, r.Shm.r_noncore)) shm.Shm.regions;
        annotation_lines = p.Driver.annotation_lines;
        stats = [];
      }
  in
  let coverage =
    Coverage.compute ~bounds:ph2.Phase2.bounds ~prog:p.Driver.ir ~shm ~p1 ~pts
      ~analyzed:(Driver.analyzed_functions ph3 p1) report
  in
  let report =
    {
      report with
      Report.stats =
        [ ("loc", p.Driver.loc_total);
          ("functions", List.length p.Driver.ir.Ssair.Ir.funcs);
          ("phase3_passes", ph3.passes);
          ("phase3_contexts", ph3.pair_count) ]
        @ Coverage.stats coverage;
    }
  in
  { Driver.report; phase3 = ph3; prepared = p; shm; phase1 = p1; pointsto = pts; coverage;
    ledger = ph2.Phase2.ledger; absint }
