(** Structural digests of analysis inputs (see the interface).

    Canonical encoding: [Marshal.to_string v [Marshal.No_sharing]].  The
    IR is cycle-free pure data, so marshalling terminates and is
    deterministic for structurally equal values; [No_sharing] makes the
    byte stream independent of incidental sharing in the heap. *)

type t = {
  funcs : (string, string) Hashtbl.t;
  program : string;
  env : string;
}

let of_value v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let combine ds = Digest.to_hex (Digest.string (String.concat "\x00" ds))

let source_key ?(file = "<input>") src = of_value (file, src)

(* [verbose] deliberately omitted: it never changes reports. *)
let semantic_config (c : Config.t) =
  of_value
    ( c.Config.field_sensitive,
      c.Config.context_sensitive,
      c.Config.control_deps,
      c.Config.check_restrictions,
      c.Config.omega_fuel,
      c.Config.critical_sinks,
      c.Config.recv_functions,
      c.Config.absint )

let sorted_tbl tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let of_program (p : Ssair.Ir.program) : t =
  let funcs = Hashtbl.create 64 in
  let fds =
    List.map
      (fun (f : Ssair.Ir.func) ->
        let d = of_value f in
        Hashtbl.replace funcs f.Ssair.Ir.fname d;
        d)
      p.Ssair.Ir.funcs
  in
  let env =
    of_value
      ( sorted_tbl p.Ssair.Ir.env.Minic.Ty.structs,
        sorted_tbl p.Ssair.Ir.env.Minic.Ty.typedefs )
  in
  let program =
    combine (env :: of_value (p.Ssair.Ir.globals, p.Ssair.Ir.externs) :: fds)
  in
  { funcs; program; env }

let func t fname = Hashtbl.find t.funcs fname

let no_facts = Digest.to_hex (Digest.string "no-facts")

let facts_digest tbl fname = Option.value ~default:no_facts (Hashtbl.find_opt tbl fname)

(* Group per-function entries, sort within each group, digest. *)
let by_func_digests (entries : (string * 'a) list) : (string, string) Hashtbl.t =
  let groups : (string, 'a list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (fname, e) ->
      match Hashtbl.find_opt groups fname with
      | Some l -> l := e :: !l
      | None -> Hashtbl.replace groups fname (ref [ e ]))
    entries;
  let out = Hashtbl.create 64 in
  Hashtbl.iter (fun fname l -> Hashtbl.replace out fname (of_value (List.sort compare !l))) groups;
  out

let phase1_by_func (p1 : Phase1.t) : (string, string) Hashtbl.t =
  let entries = ref [] in
  Hashtbl.iter
    (fun (fname, vid) s -> entries := (fname, `Reg (vid, Phase1.Rset.elements s)) :: !entries)
    p1.Phase1.facts;
  Hashtbl.iter
    (fun (fname, pname) s ->
      entries := (fname, `Param (pname, Phase1.Rset.elements s)) :: !entries)
    p1.Phase1.param_facts;
  Hashtbl.iter
    (fun fname s -> entries := (fname, `Ret (Phase1.Rset.elements s)) :: !entries)
    p1.Phase1.ret_facts;
  by_func_digests !entries

let shm (s : Shm.t) = of_value (s.Shm.regions, s.Shm.init_funcs)
