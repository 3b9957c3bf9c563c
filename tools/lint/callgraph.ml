(* Whole-program call graph over the scanned tree.

   Nodes are named functions: every top-level `let f = fun ...` in a
   scanned file, every named function nested inside one
   (`Server.serve.on_readable`), and one synthetic node per deferred
   lambda (`Server.serve.dispatch.<async:LINE>` for the argument of
   `submit` / `Thread.create` / `Evloop.post`). Edges are calls,
   classified by how the callee runs relative to the caller:

     Direct    the caller waits for the callee (ordinary application,
               and function values passed to ordinary calls — List.iter
               etc. may invoke them synchronously)
     Deferred  the callee runs later on another thread; the caller does
               not wait (submit / Thread.create / Evloop.post / the
               Evloop.add callback registration)
     Task      the callee runs on a pool domain but the caller joins
               before returning (Pool.parallel_init / parallel_map)

   Module resolution is purely syntactic: a per-file alias table
   (`module E = Versioning_util.Evloop` makes `E.add` resolve through
   the last path component), local `let` scopes shadow module-level
   names, and anything else becomes an Ext target keyed by the callee's
   module path. `open` is not tracked and calls through record fields
   (`t.backend.Backend.get ~digest`) produce no edge; DESIGN.md
   section 14 lists the resulting imprecision.

   Each call edge also records the set of mutexes held at the call
   site. Held sets are tracked through `Mutex.lock` / `Mutex.unlock`
   sequencing, `Mutex.protect`, the `Mutex.lock m; Fun.protect
   ~finally:(fun () -> Mutex.unlock m) ...` idiom, and — via a second
   build pass — the `with_lock t (fun () -> ...)` wrapper idiom: a
   lambda passed to a callee that itself acquires a mutex is re-walked
   with that mutex added to the held set. *)

module SS = Set.Make (String)
open Parsetree

type edge_kind = Direct | Deferred | Task

type target =
  | Node of string  (* a scanned function, by node id *)
  | Ext of string * string  (* module path ("" when bare) and name *)

type call = {
  ct : target;
  ckind : edge_kind;
  cheld : string list;  (* mutex names held at the call site *)
  cline : int;
  ccol : int;
}

type acquire = {
  am : string;  (* mutex name, "Module.ident" *)
  aprotected : bool;  (* via Mutex.protect: released by construction *)
  aheld : string list;  (* held before this acquire *)
  aline : int;
  acol : int;
}

type node = {
  id : string;
  nd_file : string;
  nd_module : string;
  nd_line : int;
  mutable calls : call list;
  mutable acquires : acquire list;
  mutable releases : SS.t;  (* mutexes visibly unlocked in this body *)
  mutable mut_refs : (string * int * int) list;  (* mutable id, line, col *)
}

type mutable_binding = {
  mb_id : string;  (* "Module.name" *)
  mb_file : string;
  mb_module : string;
  mb_ctor : string;
  mb_line : int;
  mb_col : int;
}

type root = { r_id : string; r_file : string; r_line : int }

type t = {
  nodes : (string, node) Hashtbl.t;
  mutables : (string, mutable_binding) Hashtbl.t;
  guarded : (string, unit) Hashtbl.t;  (* modules that use Mutex at all *)
  mutable reactor_roots : root list;
      (* Evloop.add / Evloop.post / Evloop.add_timer callbacks *)
  mutable thread_roots : root list;  (* submit / Thread.create bodies *)
  mutable task_roots : root list;  (* Pool.parallel_* task bodies *)
}

let default_register = [ "Evloop.add"; "Evloop.post"; "Evloop.add_timer" ]
let default_defer = [ "Thread.create"; "Domain.spawn"; "submit" ]
let default_pool = [ "Pool.parallel_init"; "Pool.parallel_map" ]

(* ------------------------------------------------------------------ *)
(* Small AST helpers                                                   *)
(* ------------------------------------------------------------------ *)

(* lint: swallow-ok Longident.flatten fatals on Lapply paths, which
   cannot name a function we track; an empty path is the right answer *)
let flatten lid = try Longident.flatten lid with _ -> []

let loc_pos (loc : Location.t) =
  (loc.loc_start.pos_lnum, loc.loc_start.pos_cnum - loc.loc_start.pos_bol)

let last_of path = match List.rev path with [] -> "" | x :: _ -> x

let module_name_of_file file =
  String.capitalize_ascii Filename.(remove_extension (basename file))

(* Match a callee path against a configured name list: "Evloop.add"
   matches on the last two components (so aliased and fully qualified
   spellings both hit), a bare "submit" on the last component only. *)
let path_matches_name names path =
  let last1 = last_of path in
  let last2 =
    match List.rev path with
    | f :: m :: _ -> m ^ "." ^ f
    | _ -> last1
  in
  List.exists (fun n -> if String.contains n '.' then n = last2 else n = last1)
    names

let pat_vars p =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } -> acc := txt :: !acc
          | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.pat it p;
  !acc

let rec strip_wrappers e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_newtype (_, e) ->
      strip_wrappers e
  | _ -> e

let is_function_expr e =
  match (strip_wrappers e).pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | _ -> false

let mutable_ctors =
  [
    ("Hashtbl", "create"); ("Buffer", "create"); ("Queue", "create");
    ("Stack", "create"); ("Array", "make"); ("Array", "init");
    ("Array", "create_float"); ("Bytes", "create"); ("Bytes", "make");
    ("Weak", "create");
  ]

let is_mutable_ctor path =
  last_of path = "ref"
  || List.exists
       (fun (m, f) -> List.mem m path && last_of path = f)
       mutable_ctors

(* ------------------------------------------------------------------ *)
(* Phase 1: per-file tables (names, aliases, mutables)                 *)
(* ------------------------------------------------------------------ *)

type file_info = {
  fi_file : string;
  fi_module : string;
  fi_aliases : (string, string) Hashtbl.t;  (* alias -> target module name *)
  fi_funs : (string, unit) Hashtbl.t;  (* top-level function names *)
  fi_vals : (string, unit) Hashtbl.t;  (* every top-level value name *)
  fi_muts : (string, unit) Hashtbl.t;  (* top-level mutable value names *)
  fi_subfuns : (string, unit) Hashtbl.t;  (* "Sub.name" in submodules *)
  fi_ast : structure;
}

let scan_file (fname, src) =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf fname;
  match Parse.implementation lexbuf with
  | exception _ ->
      (* lint: swallow-ok unparseable files are reported by the per-file
         pass; the graph simply omits them *)
      None
  | ast ->
      let fi =
        {
          fi_file = fname;
          fi_module = module_name_of_file fname;
          fi_aliases = Hashtbl.create 8;
          fi_funs = Hashtbl.create 32;
          fi_vals = Hashtbl.create 32;
          fi_muts = Hashtbl.create 8;
          fi_subfuns = Hashtbl.create 8;
          fi_ast = ast;
        }
      in
      let record_binding ~sub vb =
        match vb.pvb_pat.ppat_desc with
        | Ppat_var { txt = name; _ }
        | Ppat_constraint ({ ppat_desc = Ppat_var { txt = name; _ }; _ }, _)
          -> (
            match sub with
            | Some prefix ->
                if is_function_expr vb.pvb_expr then
                  Hashtbl.replace fi.fi_subfuns (prefix ^ "." ^ name) ()
            | None ->
                Hashtbl.replace fi.fi_vals name ();
                if is_function_expr vb.pvb_expr then
                  Hashtbl.replace fi.fi_funs name ()
                else
                  let body = strip_wrappers vb.pvb_expr in
                  (match body.pexp_desc with
                  | Pexp_apply
                      ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
                    when is_mutable_ctor (flatten txt) ->
                      Hashtbl.replace fi.fi_muts name ()
                  | _ -> ()))
        | _ -> ()
      in
      let rec scan ~sub items =
        List.iter
          (fun item ->
            match item.pstr_desc with
            | Pstr_value (_, vbs) -> List.iter (record_binding ~sub) vbs
            | Pstr_module
                {
                  pmb_name = { txt = Some mname; _ };
                  pmb_expr = { pmod_desc = Pmod_structure inner; _ };
                  _;
                } ->
                let prefix =
                  match sub with
                  | None -> mname
                  | Some p -> p ^ "." ^ mname
                in
                scan ~sub:(Some prefix) inner
            | Pstr_module
                {
                  pmb_name = { txt = Some mname; _ };
                  pmb_expr = { pmod_desc = Pmod_ident { txt; _ }; _ };
                  _;
                } ->
                if sub = None then
                  Hashtbl.replace fi.fi_aliases mname (last_of (flatten txt))
            | _ -> ())
          items
      in
      scan ~sub:None ast;
      Some fi

(* ------------------------------------------------------------------ *)
(* Phase 2: body walk, edges, held-mutex tracking                      *)
(* ------------------------------------------------------------------ *)

type flow = FNone | FLock of string | FUnlock of string list

type binding_kind = EShadow | ENode of string

let build ?(register = default_register) ?(defer = default_defer)
    ?(pool = default_pool) files =
  let infos = List.filter_map scan_file files in
  let by_module = Hashtbl.create 32 in
  List.iter
    (fun fi ->
      if not (Hashtbl.mem by_module fi.fi_module) then
        Hashtbl.add by_module fi.fi_module fi)
    infos;
  (* does the file mention Mutex anywhere? coarse "guarded" bit for R9 *)
  let guarded = Hashtbl.create 16 in
  List.iter
    (fun fi ->
      let found = ref false in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun it e ->
              (match e.pexp_desc with
              | Pexp_ident { txt; _ } when List.mem "Mutex" (flatten txt) ->
                  found := true
              | _ -> ());
              Ast_iterator.default_iterator.expr it e);
        }
      in
      it.structure it fi.fi_ast;
      if !found then Hashtbl.replace guarded fi.fi_module ())
    infos;
  let mutables = Hashtbl.create 32 in
  List.iter
    (fun fi ->
      List.iter
        (fun item ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_var { txt = name; _ }
                    when Hashtbl.mem fi.fi_muts name ->
                      let body = strip_wrappers vb.pvb_expr in
                      let ctor =
                        match body.pexp_desc with
                        | Pexp_apply
                            ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
                            String.concat "." (flatten txt)
                        | _ -> "?"
                      in
                      let line, col = loc_pos vb.pvb_loc in
                      let id = fi.fi_module ^ "." ^ name in
                      Hashtbl.replace mutables id
                        {
                          mb_id = id;
                          mb_file = fi.fi_file;
                          mb_module = fi.fi_module;
                          mb_ctor = ctor;
                          mb_line = line;
                          mb_col = col;
                        }
                  | _ -> ())
                vbs
          | _ -> ())
        fi.fi_ast)
    infos;

  (* One full body-walk pass. [wrapper] maps node ids to the mutexes a
     callee acquires directly; pass 1 runs with an empty table, pass 2
     re-runs with pass 1's acquire sets so `with_lock t (fun () -> ..)`
     lambdas carry the wrapper's mutex in their held set. *)
  let run_pass wrapper =
    let g =
      {
        nodes = Hashtbl.create 256;
        mutables;
        guarded;
        reactor_roots = [];
        thread_roots = [];
        task_roots = [];
      }
    in
    let fresh_node fi id line =
      let rec uniq id n =
        let id' = if n = 0 then id else Printf.sprintf "%s~%d" id n in
        if Hashtbl.mem g.nodes id' then uniq id (n + 1) else id'
      in
      let id = uniq id 0 in
      let nd =
        {
          id;
          nd_file = fi.fi_file;
          nd_module = fi.fi_module;
          nd_line = line;
          calls = [];
          acquires = [];
          releases = SS.empty;
          mut_refs = [];
        }
      in
      Hashtbl.add g.nodes id nd;
      nd
    in
    let walk_file fi =
      let add_call nd target kind held loc =
        let line, col = loc_pos loc in
        nd.calls <-
          { ct = target; ckind = kind; cheld = SS.elements held; cline = line;
            ccol = col }
          :: nd.calls
      in
      (* resolve a value path to something edge-worthy *)
      let resolve env path =
        match path with
        | [] -> `None
        | [ x ] -> (
            match List.assoc_opt x env with
            | Some EShadow -> `None
            | Some (ENode id) -> `Node id
            | None ->
                if Hashtbl.mem fi.fi_funs x then
                  `Node (fi.fi_module ^ "." ^ x)
                else if Hashtbl.mem fi.fi_muts x then
                  `Mut (fi.fi_module ^ "." ^ x)
                else if Hashtbl.mem fi.fi_vals x then `None
                else `Ext ("", x))
        | _ -> (
            let x = last_of path in
            let mods = List.rev path |> List.tl |> List.rev in
            (* within-file submodule? *)
            let subkey = String.concat "." mods ^ "." ^ x in
            if Hashtbl.mem fi.fi_subfuns subkey then
              `Node (fi.fi_module ^ "." ^ subkey)
            else
              let m = last_of mods in
              let m =
                match Hashtbl.find_opt fi.fi_aliases m with
                | Some target -> target
                | None -> m
              in
              match Hashtbl.find_opt by_module m with
              | Some fi' ->
                  if Hashtbl.mem fi'.fi_funs x then `Node (m ^ "." ^ x)
                  else if Hashtbl.mem fi'.fi_muts x then `Mut (m ^ "." ^ x)
                  else if Hashtbl.mem fi'.fi_vals x then `None
                  else `Ext (String.concat "." mods, x)
              | None -> `Ext (String.concat "." mods, x))
      in
      (* Name of the mutex in `Mutex.lock <e>`, module-qualified. A
         function-local mutex shares the namespace of its module's
         top-level ones — acceptable conflation for a linter. *)
      let mutex_name e =
        match (strip_wrappers e).pexp_desc with
        | Pexp_ident { txt = Longident.Lident x; _ } ->
            Some (fi.fi_module ^ "." ^ x)
        | Pexp_ident { txt; _ } -> (
            match flatten txt with
            | [] -> None
            | path ->
                let x = last_of path in
                let mods = List.rev path |> List.tl |> List.rev in
                let m = last_of mods in
                let m =
                  match Hashtbl.find_opt fi.fi_aliases m with
                  | Some t -> t
                  | None -> m
                in
                if Hashtbl.mem by_module m then Some (m ^ "." ^ x)
                else Some (fi.fi_module ^ "." ^ x))
        | Pexp_field (_, { txt; _ }) -> (
            match flatten txt with
            | [] -> None
            | path -> Some (fi.fi_module ^ "." ^ last_of path))
        | _ -> None
      in
      let unlocks_in e =
        (* mutex names passed to Mutex.unlock anywhere inside [e] *)
        let acc = ref SS.empty in
        let it =
          {
            Ast_iterator.default_iterator with
            expr =
              (fun it e' ->
                (match e'.pexp_desc with
                | Pexp_apply
                    ( { pexp_desc = Pexp_ident { txt; _ }; _ },
                      (_, arg) :: _ )
                  when flatten txt = [ "Mutex"; "unlock" ] -> (
                    match mutex_name arg with
                    | Some m -> acc := SS.add m !acc
                    | None -> ())
                | _ -> ());
                Ast_iterator.default_iterator.expr it e');
          }
        in
        it.expr it e;
        !acc
      in
      let wrapper_mutexes target =
        match target with
        | `Node id -> (
            match Hashtbl.find_opt wrapper id with
            | Some ms -> ms
            | None -> SS.empty)
        | _ -> SS.empty
      in
      (* the walker proper; returns the lock-flow of the expression so
         sequences can thread held sets *)
      let rec walk nd env held e : flow =
        match e.pexp_desc with
        | Pexp_ident { txt; loc } -> (
            match resolve env (flatten txt) with
            | `Node id ->
                add_call nd (Node id) Direct held loc;
                FNone
            | `Mut id ->
                let line, col = loc_pos loc in
                nd.mut_refs <- (id, line, col) :: nd.mut_refs;
                FNone
            | `Ext (m, x) ->
                add_call nd (Ext (m, x)) Direct held loc;
                FNone
            | `None -> FNone)
        | Pexp_apply _ -> walk_apply nd env held e
        | Pexp_sequence (e1, e2) ->
            let held' = apply_flow held (walk nd env held e1) in
            walk nd env held' e2
        | Pexp_let (_, vbs, body) ->
            let fun_vbs, val_vbs =
              List.partition (fun vb -> is_function_expr vb.pvb_expr) vbs
            in
            let named =
              List.filter_map
                (fun vb ->
                  match vb.pvb_pat.ppat_desc with
                  | Ppat_var { txt = name; _ } ->
                      let line, _ = loc_pos vb.pvb_loc in
                      Some (name, fresh_node fi (nd.id ^ "." ^ name) line, vb)
                  | _ -> None)
                fun_vbs
            in
            (* a recursive group sees its own names; a non-recursive one
               technically does not, but over-approximating is fine *)
            let env' =
              List.fold_left
                (fun env (name, child, _) -> (name, ENode child.id) :: env)
                env named
            in
            List.iter
              (fun (_, child, vb) -> walk_body child env' vb.pvb_expr)
              named;
            let held_after =
              List.fold_left
                (fun held vb ->
                  apply_flow held (walk nd env' held vb.pvb_expr))
                held val_vbs
            in
            let env'' =
              List.fold_left
                (fun env vb ->
                  List.fold_left
                    (fun env v -> (v, EShadow) :: env)
                    env
                    (pat_vars vb.pvb_pat))
                env' val_vbs
            in
            walk nd env'' held_after body
        | Pexp_fun (_, default, pat, body) ->
            (match default with
            | Some d -> ignore (walk nd env held d)
            | None -> ());
            let env' =
              List.fold_left (fun env v -> (v, EShadow) :: env) env
                (pat_vars pat)
            in
            ignore (walk nd env' held body);
            FNone
        | Pexp_function cases ->
            walk_cases nd env held cases;
            FNone
        | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
            ignore (walk nd env held scrut);
            walk_cases nd env held cases;
            FNone
        | Pexp_ifthenelse (c, t, f) ->
            ignore (walk nd env held c);
            ignore (walk nd env held t);
            (match f with
            | Some f -> ignore (walk nd env held f)
            | None -> ());
            FNone
        | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_newtype (_, e)
          ->
            walk nd env held e
        | Pexp_open (_, e) | Pexp_letexception (_, e) ->
            walk nd env held e
        | Pexp_letmodule (_, _, e) -> walk nd env held e
        | Pexp_while (c, body) ->
            ignore (walk nd env held c);
            ignore (walk nd env held body);
            FNone
        | Pexp_for ({ ppat_desc = Ppat_var { txt = v; _ }; _ }, a, b, _, body)
          ->
            ignore (walk nd env held a);
            ignore (walk nd env held b);
            ignore (walk nd ((v, EShadow) :: env) held body);
            FNone
        | _ ->
            shallow_children nd env held e;
            FNone
      and walk_cases nd env held cases =
        List.iter
          (fun c ->
            let env' =
              List.fold_left (fun env v -> (v, EShadow) :: env) env
                (pat_vars c.pc_lhs)
            in
            (match c.pc_guard with
            | Some gd -> ignore (walk nd env' held gd)
            | None -> ());
            ignore (walk nd env' held c.pc_rhs))
          cases
      and shallow_children nd env held e =
        let root = ref true in
        let it =
          {
            Ast_iterator.default_iterator with
            expr =
              (fun it e' ->
                if !root then begin
                  root := false;
                  Ast_iterator.default_iterator.expr it e'
                end
                else ignore (walk nd env held e'));
          }
        in
        it.expr it e
      and apply_flow held = function
        | FNone -> held
        | FLock m -> SS.add m held
        | FUnlock ms -> List.fold_left (fun h m -> SS.remove m h) held ms
      and walk_body nd env e =
        (* peel the parameter prefix of a function body *)
        let rec peel env e =
          match e.pexp_desc with
          | Pexp_fun (_, default, pat, body) ->
              (match default with
              | Some d -> ignore (walk nd env SS.empty d)
              | None -> ());
              let env' =
                List.fold_left (fun env v -> (v, EShadow) :: env) env
                  (pat_vars pat)
              in
              peel env' body
          | Pexp_newtype (_, body) | Pexp_constraint (body, _) ->
              peel env body
          | Pexp_function cases -> walk_cases nd env SS.empty cases
          | _ -> ignore (walk nd env SS.empty e)
        in
        peel env e
      (* applications: flatten @@ / |> and nested applies, then dispatch
         on the callee *)
      and normalize_apply e args =
        match e.pexp_desc with
        | Pexp_apply (f, more) -> (
            match (f.pexp_desc, more) with
            | Pexp_ident { txt = Longident.Lident "@@"; _ }, [ (_, g); x ] ->
                normalize_apply g (x :: args)
            | Pexp_ident { txt = Longident.Lident "|>"; _ }, [ x; (_, g) ] ->
                normalize_apply g (x :: args)
            | _ -> normalize_apply f (more @ args))
        | _ -> (e, args)
      and walk_fun_arg nd env held ~kind ~as_root arg =
        (* an argument in a "runs elsewhere" position: a lambda becomes
           a synthetic node, a function reference becomes an edge *)
        let arg = strip_wrappers arg in
        match arg.pexp_desc with
        | Pexp_fun _ | Pexp_function _ ->
            let line, _ = loc_pos arg.pexp_loc in
            let child =
              fresh_node fi (Printf.sprintf "%s.<async:%d>" nd.id line) line
            in
            add_call nd (Node child.id) kind held arg.pexp_loc;
            (match as_root with
            | Some which ->
                add_root which
                  { r_id = child.id; r_file = fi.fi_file; r_line = line }
            | None -> ());
            walk_body child env arg
        | Pexp_ident { txt; loc } -> (
            match resolve env (flatten txt) with
            | `Node id ->
                add_call nd (Node id) kind held loc;
                (match as_root with
                | Some which ->
                    let line, _ = loc_pos loc in
                    add_root which
                      { r_id = id; r_file = fi.fi_file; r_line = line }
                | None -> ())
            | _ -> ignore (walk nd env held arg))
        | _ -> ignore (walk nd env held arg)
      and add_root which r =
        match which with
        | `Reactor -> g.reactor_roots <- r :: g.reactor_roots
        | `Thread -> g.thread_roots <- r :: g.thread_roots
        | `Task -> g.task_roots <- r :: g.task_roots
      and walk_apply nd env held e =
        let callee, args = normalize_apply e [] in
        match callee.pexp_desc with
        | Pexp_ident { txt; loc } -> (
            let path = flatten txt in
            match (path, args) with
            | [ "Mutex"; "lock" ], (_, m) :: _ -> (
                add_call nd (Ext ("Mutex", "lock")) Direct held loc;
                match mutex_name m with
                | Some name ->
                    let line, col = loc_pos loc in
                    nd.acquires <-
                      { am = name; aprotected = false;
                        aheld = SS.elements held; aline = line; acol = col }
                      :: nd.acquires;
                    FLock name
                | None -> FNone)
            | [ "Mutex"; "unlock" ], (_, m) :: _ -> (
                match mutex_name m with
                | Some name ->
                    nd.releases <- SS.add name nd.releases;
                    FUnlock [ name ]
                | None -> FNone)
            | [ "Mutex"; "protect" ], (_, m) :: rest -> (
                add_call nd (Ext ("Mutex", "protect")) Direct held loc;
                match mutex_name m with
                | Some name ->
                    let line, col = loc_pos loc in
                    nd.acquires <-
                      { am = name; aprotected = true;
                        aheld = SS.elements held; aline = line; acol = col }
                      :: nd.acquires;
                    let held' = SS.add name held in
                    List.iter
                      (fun (_, a) -> walk_inline_arg nd env held' a)
                      rest;
                    FNone
                | None ->
                    List.iter (fun (_, a) -> ignore (walk nd env held a)) rest;
                    FNone)
            | [ "Fun"; "protect" ], _ ->
                let finally =
                  List.find_opt
                    (fun (lbl, _) ->
                      match lbl with
                      | Asttypes.Labelled "finally" -> true
                      | _ -> false)
                    args
                in
                let released =
                  match finally with
                  | Some (_, fin) -> unlocks_in fin
                  | None -> SS.empty
                in
                List.iter (fun (_, a) -> walk_inline_arg nd env held a) args;
                if SS.is_empty released then FNone
                else FUnlock (SS.elements released)
            | _, _ when path_matches_name register path ->
                add_call_for_callee nd env held callee loc;
                List.iter
                  (fun (_, a) ->
                    walk_fun_arg nd env SS.empty ~kind:Deferred
                      ~as_root:(Some `Reactor) a)
                  args;
                FNone
            | _, _ when path_matches_name defer path ->
                add_call_for_callee nd env held callee loc;
                List.iter
                  (fun (_, a) ->
                    walk_fun_arg nd env SS.empty ~kind:Deferred
                      ~as_root:(Some `Thread) a)
                  args;
                FNone
            | _, _ when path_matches_name pool path ->
                add_call_for_callee nd env held callee loc;
                List.iter
                  (fun (_, a) ->
                    walk_fun_arg nd env held ~kind:Task ~as_root:(Some `Task)
                      a)
                  args;
                FNone
            | _ ->
                let target = resolve env path in
                (match target with
                | `Node id -> add_call nd (Node id) Direct held loc
                | `Ext (m, x) -> add_call nd (Ext (m, x)) Direct held loc
                | `Mut id ->
                    let line, col = loc_pos loc in
                    nd.mut_refs <- (id, line, col) :: nd.mut_refs
                | `None -> ());
                let held_args = SS.union held (wrapper_mutexes target) in
                List.iter
                  (fun (_, a) -> walk_inline_arg nd env held_args a)
                  args;
                FNone)
        | _ ->
            ignore (walk nd env held callee);
            List.iter (fun (_, a) -> walk_inline_arg nd env held a) args;
            FNone
      and walk_inline_arg nd env held a =
        (* ordinary argument: lambdas are inlined into the current node
           (the callee may invoke them synchronously), idents resolve to
           Direct edges via the generic walk *)
        let a' = strip_wrappers a in
        match a'.pexp_desc with
        | Pexp_fun _ | Pexp_function _ ->
            let rec peel env e =
              match e.pexp_desc with
              | Pexp_fun (_, d, pat, body) ->
                  (match d with
                  | Some d -> ignore (walk nd env held d)
                  | None -> ());
                  let env' =
                    List.fold_left (fun env v -> (v, EShadow) :: env) env
                      (pat_vars pat)
                  in
                  peel env' body
              | Pexp_newtype (_, body) | Pexp_constraint (body, _) ->
                  peel env body
              | Pexp_function cases -> walk_cases nd env held cases
              | _ -> ignore (walk nd env held e)
            in
            peel env a'
        | _ -> ignore (walk nd env held a)
      and add_call_for_callee nd env held callee loc =
        match callee.pexp_desc with
        | Pexp_ident { txt; _ } -> (
            match resolve env (flatten txt) with
            | `Node id -> add_call nd (Node id) Direct held loc
            | `Ext (m, x) -> add_call nd (Ext (m, x)) Direct held loc
            | _ -> ())
        | _ -> ()
      in
      (* walk the file's top level *)
      let init = fresh_node fi (fi.fi_module ^ ".<init>") 1 in
      let rec walk_items ~prefix items =
        List.iter
          (fun item ->
            match item.pstr_desc with
            | Pstr_value (_, vbs) ->
                List.iter
                  (fun vb ->
                    match vb.pvb_pat.ppat_desc with
                    | Ppat_var { txt = name; _ }
                    | Ppat_constraint
                        ( { ppat_desc = Ppat_var { txt = name; _ }; _ }, _ )
                      when is_function_expr vb.pvb_expr ->
                        let line, _ = loc_pos vb.pvb_loc in
                        let id =
                          match prefix with
                          | None -> fi.fi_module ^ "." ^ name
                          | Some p -> fi.fi_module ^ "." ^ p ^ "." ^ name
                        in
                        let node = fresh_node fi id line in
                        walk_body node [] vb.pvb_expr
                    | _ -> ignore (walk init [] SS.empty vb.pvb_expr))
                  vbs
            | Pstr_eval (e, _) -> ignore (walk init [] SS.empty e)
            | Pstr_module
                {
                  pmb_name = { txt = Some mname; _ };
                  pmb_expr = { pmod_desc = Pmod_structure inner; _ };
                  _;
                } ->
                let p =
                  match prefix with
                  | None -> mname
                  | Some p -> p ^ "." ^ mname
                in
                walk_items ~prefix:(Some p) inner
            | _ -> ())
          items
      in
      walk_items ~prefix:None fi.fi_ast
    in
    List.iter walk_file infos;
    g
  in
  let g1 = run_pass (Hashtbl.create 0) in
  let wrapper = Hashtbl.create 64 in
  Hashtbl.iter
    (fun id nd ->
      let ms =
        List.fold_left (fun s a -> SS.add a.am s) SS.empty nd.acquires
      in
      if not (SS.is_empty ms) then Hashtbl.replace wrapper id ms)
    g1.nodes;
  run_pass wrapper

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let find_node g id = Hashtbl.find_opt g.nodes id

let node_ids g =
  Hashtbl.fold (fun id _ acc -> id :: acc) g.nodes [] |> List.sort compare
