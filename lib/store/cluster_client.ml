module Metrics = Versioning_obs.Metrics

let log_src = Logs.Src.create "dsvc.cluster_client" ~doc:"Failover client"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = { endpoints : (string * Client.t) list; detector : Detector.t }

let parse_endpoint s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "bad endpoint %S (want host:port)" s)
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some port when host <> "" && port > 0 && port < 65536 ->
          Ok (host, port)
      | _ -> Error (Printf.sprintf "bad endpoint %S (want host:port)" s))

let connect ?timeout ?retries ?detector endpoints =
  if endpoints = [] then Error "no endpoints given"
  else
    let rec build acc = function
      | [] -> Ok (List.rev acc)
      | s :: rest -> (
          match parse_endpoint s with
          | Error _ as e -> e
          | Ok (host, port) ->
              let c = Client.connect ?timeout ?retries ~host ~port () in
              build ((Client.endpoint c, c) :: acc) rest)
    in
    match build [] endpoints with
    | Error _ as e -> e
    | Ok eps ->
        let detector =
          match detector with Some d -> d | None -> Detector.create ()
        in
        Ok { endpoints = eps; detector }

let endpoints t = List.map fst t.endpoints

(* Preference order: Up nodes in configured order, then expired
   probations, and — only when nothing better exists — nodes still in
   probation, because a request against a truly dead node costs a
   connect timeout. *)
let candidates t =
  let ranked state =
    List.filter
      (fun (name, _) -> Detector.state t.detector ~name = state)
      t.endpoints
  in
  ranked `Up @ ranked `Probe @ ranked `Down

(* Failover happens ONLY on transport-level errors (no HTTP status
   came back). An HTTP error is the cluster answering — retrying a
   409 or 404 against another node could apply a mutation twice
   against staler metadata. A node killed after committing but before
   responding does force a re-send elsewhere; commits are
   content-addressed so the worst case is a duplicate version entry,
   never divergence (DESIGN.md §12). *)
let request t ~meth ~path ?(query = []) ?(body = "") () =
  let rec go last = function
    | [] -> Error last
    | (name, client) :: rest -> (
        match Client.request client ~meth ~path ~query ~body () with
        | Ok _ as ok ->
            Detector.ok t.detector ~name;
            ok
        | Error e ->
            Detector.fail t.detector ~name e;
            Metrics.counter "dsvc_cluster_client_failover_total"
              ~labels:[ ("from", name) ]
              ~help:"Requests moved to another endpoint after a transport error";
            Log.warn (fun m ->
                m "failover: %s %s on %s failed (%s), trying next" meth path
                  name e);
            go e rest)
  in
  go "no usable endpoint" (candidates t)

let expect_ok t ~meth ~path ?query ?body () =
  match request t ~meth ~path ?query ?body () with
  | Error _ as e -> e
  | Ok (status, body) when status >= 200 && status < 300 -> Ok body
  | Ok (_, body) -> Error (String.trim body)

let kv_body body =
  String.split_on_char '\n' (String.trim body)
  |> List.filter_map (fun l ->
         match String.index_opt l ' ' with
         | Some i ->
             Some
               (String.sub l 0 i, String.sub l (i + 1) (String.length l - i - 1))
         | None -> if l = "" then None else Some (l, ""))

let checkout t name =
  expect_ok t ~meth:"GET" ~path:(Client.path_of [ "checkout"; name ]) ()

let commit t ?(message = "") ?parents content =
  let query =
    ("message", message)
    ::
    (match parents with
    | None -> []
    | Some ps -> [ ("parents", String.concat "," (List.map string_of_int ps)) ])
  in
  Result.bind
    (expect_ok t ~meth:"POST" ~path:"/commit" ~query ~body:content ())
    (fun body ->
      match int_of_string_opt (String.trim body) with
      | Some id -> Ok id
      | None -> Error ("unexpected commit response: " ^ body))

let stats t = Result.map kv_body (expect_ok t ~meth:"GET" ~path:"/stats" ())

let optimize t strategy =
  Result.map kv_body
    (expect_ok t ~meth:"POST" ~path:"/optimize"
       ~query:[ ("strategy", strategy) ]
       ())

let verify t =
  Result.map (fun _ -> ()) (expect_ok t ~meth:"GET" ~path:"/verify" ())

let health t = Result.map kv_body (expect_ok t ~meth:"GET" ~path:"/health" ())

let anti_entropy t =
  Result.map kv_body (expect_ok t ~meth:"POST" ~path:"/anti-entropy" ())
