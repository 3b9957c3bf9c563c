module Line_file = Versioning_obs.Line_file
module Int_map = Map.Make (Int)

let ( let* ) = Result.bind

type commit_info = {
  id : int;
  parents : int list;
  message : string;
  timestamp : float;
}

type stored = Full of string | Delta_from of int * string

type t = {
  commits : commit_info list;
  stored : stored Int_map.t;
  branches : (string * int) list;
  tags : (string * int) list;
  head : string;
  next_id : int;
  generation : int;
}

let empty =
  {
    commits = [];
    stored = Int_map.empty;
    branches = [ ("main", 0) ];
    tags = [];
    head = "main";
    next_id = 1;
    generation = 0;
  }

(* The format is line- and space-delimited: a name with whitespace or
   control characters would make the file unloadable. *)
let valid_ref_name name =
  name <> "" && String.length name <= 255
  && String.for_all (fun c -> c > ' ' && c <> '\x7f') name

(* One [stored] entry, "<id> full <digest>" or "<id> delta <parent>
   <digest>": the metadata's [stored] lines and the journal's
   [old]/[new] lines carry the same fields. *)
let render_stored prefix m =
  Int_map.bindings m
  |> List.map (fun (id, s) ->
         match s with
         | Full digest -> Printf.sprintf "%s %d full %s" prefix id digest
         | Delta_from (p, digest) ->
             Printf.sprintf "%s %d delta %d %s" prefix id p digest)

let add_stored m = function
  | [ id; "full"; digest ] -> Int_map.add (Line_file.int id) (Full digest) m
  | [ id; "delta"; p; digest ] ->
      Int_map.add (Line_file.int id) (Delta_from (Line_file.int p, digest)) m
  | _ -> Line_file.bad "bad stored entry"

let render m =
  let version c =
    let parents =
      match c.parents with
      | [] -> "-"
      | ps -> String.concat "," (List.map string_of_int ps)
    in
    Printf.sprintf "version %d %.6f %s %s" c.id c.timestamp parents
      (String.escaped c.message)
  in
  Line_file.render ~magic:"dsvc"
    ((("head " ^ m.head) :: Printf.sprintf "next %d" m.next_id
     :: (if m.generation > 0 then [ Printf.sprintf "gen %d" m.generation ]
         else []))
    @ List.map (fun (n, v) -> Printf.sprintf "branch %s %d" n v) m.branches
    @ List.map (fun (n, v) -> Printf.sprintf "tag %s %d" n v) m.tags
    @ List.map version m.commits
    @ render_stored "stored" m.stored)

let parse content =
  let m = ref { empty with branches = [] } in
  let* () =
    Line_file.parse ~magic:"dsvc" ~what:"repository metadata" content
      (fun fields ->
        let cur = !m in
        m :=
          match fields with
          | [ "head"; name ] -> { cur with head = name }
          | [ "next"; n ] -> { cur with next_id = Line_file.int n }
          | [ "gen"; n ] -> { cur with generation = Line_file.int n }
          | [ "branch"; name; v ] ->
              { cur with branches = (name, Line_file.int v) :: cur.branches }
          | [ "tag"; name; v ] ->
              { cur with tags = (name, Line_file.int v) :: cur.tags }
          | "version" :: id :: ts :: parents :: msg_parts ->
              let message =
                try Scanf.unescaped (String.concat " " msg_parts)
                with Scanf.Scan_failure _ -> String.concat " " msg_parts
              in
              let parents =
                if parents = "-" then []
                else List.map Line_file.int (String.split_on_char ',' parents)
              in
              let c =
                { id = Line_file.int id; parents; message;
                  timestamp = Line_file.float ts }
              in
              { cur with commits = c :: cur.commits }
          | "stored" :: entry ->
              { cur with stored = add_stored cur.stored entry }
          | _ -> Line_file.bad "unknown line")
  in
  let m = !m in
  Ok
    {
      m with
      commits = List.sort (fun a b -> compare b.id a.id) m.commits;
      branches = List.rev m.branches;
      tags = List.rev m.tags;
    }

let render_journal ~old_map ~new_map =
  Line_file.render ~magic:"journal"
    (render_stored "old" old_map @ render_stored "new" new_map)

let parse_journal content =
  let old_map = ref Int_map.empty and new_map = ref Int_map.empty in
  let* () =
    Line_file.parse ~magic:"journal" ~what:"journal" content (function
      | "old" :: entry -> old_map := add_stored !old_map entry
      | "new" :: entry -> new_map := add_stored !new_map entry
      | _ -> Line_file.bad "unknown line")
  in
  Ok (!old_map, !new_map)
