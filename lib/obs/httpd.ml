type request = {
  rq_method : string;
  rq_path : string;
  rq_query : (string * string) list;
}

type response =
  | Fixed of { status : int; content_type : string; body : string }
  | Stream of { content_type : string; write : (string -> bool) -> unit }

type handler = request -> response

(* Generation counter shared by all servers in the process, like the
   executor pool's: a response straggling out of a stopped incarnation can
   always be told apart from the current one. *)
let generations = Atomic.make 0

(* Connections are served by a small pool of persistent worker domains
   rather than a domain per connection: on OCaml 5, spawning a domain is
   a cross-domain synchronisation (milliseconds on a loaded single-core
   box), so per-connection spawn would tax every in-flight query once a
   scraper starts polling. Workers park in [Condition.wait] between
   connections, which costs the running engine nothing. *)
type t = {
  sock : Unix.file_descr;
  t_port : int;
  t_gen : int;
  max_conn : int;  (* cap on in-flight connections: queued + being served *)
  stopping : bool Atomic.t;
  busy : int Atomic.t;  (* workers currently serving a connection *)
  rejected : int Atomic.t;
  qmu : Mutex.t;
  qcond : Condition.t;
  queue : Unix.file_descr Queue.t;  (* accepted, waiting for a worker *)
  mutable workers : unit Domain.t list;
  mutable acceptor : unit Domain.t option;
  mutable stopped : bool;  (* guarded by qmu *)
}

let port t = t.t_port
let generation t = t.t_gen
let rejected t = Atomic.get t.rejected

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* ------------------------------------------------------------------ *)
(* Wire helpers                                                        *)
(* ------------------------------------------------------------------ *)

let write_all fd s =
  let len = String.length s in
  let b = Bytes.unsafe_of_string s in
  let off = ref 0 in
  while !off < len do
    let n = Unix.write fd b !off (len - !off) in
    if n <= 0 then raise End_of_file;
    off := !off + n
  done

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

let fixed_response fd status content_type body =
  write_all fd
    (Printf.sprintf
       "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
        Connection: close\r\n\r\n"
       status (status_text status) content_type (String.length body));
  write_all fd body

let stream_header fd content_type =
  write_all fd
    (Printf.sprintf
       "HTTP/1.1 200 OK\r\nContent-Type: %s\r\nCache-Control: no-cache\r\n\
        Connection: close\r\n\r\n"
       content_type)

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> raise Exit

let percent_decode s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '%' when !i + 2 < n -> (
      try
        Buffer.add_char b
          (Char.chr ((hex_val s.[!i + 1] * 16) + hex_val s.[!i + 2]));
        i := !i + 2
      with Exit -> Buffer.add_char b '%')
    | '+' -> Buffer.add_char b ' '
    | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

let parse_query q =
  List.filter_map
    (fun kv ->
      if kv = "" then None
      else
        match String.index_opt kv '=' with
        | None -> Some (percent_decode kv, "")
        | Some i ->
          Some
            ( percent_decode (String.sub kv 0 i),
              percent_decode
                (String.sub kv (i + 1) (String.length kv - i - 1)) ))
    (String.split_on_char '&' q)

let parse_target target =
  match String.index_opt target '?' with
  | None -> (percent_decode target, [])
  | Some i ->
    ( percent_decode (String.sub target 0 i),
      parse_query (String.sub target (i + 1) (String.length target - i - 1)) )

(* Request head only (GET endpoints have no body), capped at 8 KiB. With
   a [deadline] (absolute, [Unix.gettimeofday] clock) every read first
   waits for input only until then, so the whole read is bounded in time. *)
let head_limit = 8192

let read_head ?deadline fd =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 512 in
  let find_end () =
    let s = Buffer.contents buf in
    let n = String.length s in
    let rec scan i =
      if i + 3 >= n then None
      else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
              && s.[i + 3] = '\n'
      then Some ()
      else scan (i + 1)
    in
    scan 0
  in
  let rec loop () =
    if Buffer.length buf > head_limit then None
    else
      match find_end () with
      | Some () -> Some (Buffer.contents buf)
      | None ->
        let ready =
          match deadline with
          | None -> true
          | Some d -> (
            let left = d -. Unix.gettimeofday () in
            left > 0.
            && match Unix.select [ fd ] [] [] left with [], _, _ -> false | _ -> true)
        in
        let n = if ready then Unix.read fd chunk 0 (Bytes.length chunk) else 0 in
        if n <= 0 then None
        else begin
          Buffer.add_subbytes buf chunk 0 n;
          loop ()
        end
  in
  try loop () with End_of_file | Unix.Unix_error _ -> None

let parse_request head =
  match String.split_on_char '\r' head with
  | first :: _ -> (
    match String.split_on_char ' ' (String.trim first) with
    | [ meth; target; _protocol ] ->
      let path, query = parse_target target in
      Some
        {
          rq_method = String.uppercase_ascii meth;
          rq_path = path;
          rq_query = query;
        }
    | _ -> None)
  | [] -> None

(* ------------------------------------------------------------------ *)
(* Connection handling                                                 *)
(* ------------------------------------------------------------------ *)

let serve_connection t handler fd =
  (* a stuck or slow-writing client may hold a connection slot for at most
     the socket timeout, never the whole server *)
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0
   with Unix.Unix_error _ -> ());
  match read_head fd with
  | None -> (try fixed_response fd 400 "text/plain" "bad request\n" with _ -> ())
  | Some head -> (
    match parse_request head with
    | None ->
      (try fixed_response fd 400 "text/plain" "bad request\n" with _ -> ())
    | Some req when req.rq_method <> "GET" ->
      (try fixed_response fd 405 "text/plain" "method not allowed\n"
       with _ -> ())
    | Some req -> (
      let response =
        try handler req
        with e ->
          Fixed
            {
              status = 500;
              content_type = "text/plain";
              body = Printf.sprintf "internal error: %s\n" (Printexc.to_string e);
            }
      in
      try
        match response with
        | Fixed { status; content_type; body } ->
          fixed_response fd status content_type body
        | Stream { content_type; write } ->
          stream_header fd content_type;
          let alive = ref true in
          let push chunk =
            if Atomic.get t.stopping || not !alive then false
            else
              try
                write_all fd chunk;
                true
              with _ ->
                alive := false;
                false
          in
          write push
      with _ -> () (* client went away mid-response *)))

(* Take the next queued connection, marking the worker busy before the
   queue lock drops so the acceptor's in-flight count (queued + busy)
   never undercounts. Returns [None] when the server is stopping. *)
let next_connection t =
  Mutex.lock t.qmu;
  let rec wait () =
    if Atomic.get t.stopping then begin
      Mutex.unlock t.qmu;
      None
    end
    else
      match Queue.take_opt t.queue with
      | Some fd ->
        Atomic.incr t.busy;
        Mutex.unlock t.qmu;
        Some fd
      | None ->
        Condition.wait t.qcond t.qmu;
        wait ()
  in
  wait ()

let rec worker_loop t handler =
  match next_connection t with
  | None -> ()
  | Some fd ->
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close fd with _ -> ());
        Atomic.decr t.busy)
      (fun () -> try serve_connection t handler fd with _ -> ());
    worker_loop t handler

let accept_loop t =
  while not (Atomic.get t.stopping) do
    match Unix.select [ t.sock ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
      match Unix.accept t.sock with
      | exception Unix.Unix_error _ -> ()
      | fd, _ ->
        if Atomic.get t.stopping then (try Unix.close fd with _ -> ())
        else
          let enqueued =
            with_lock t.qmu (fun () ->
                if Queue.length t.queue + Atomic.get t.busy >= t.max_conn then
                  false
                else begin
                  Queue.push fd t.queue;
                  Condition.signal t.qcond;
                  true
                end)
          in
          if not enqueued then begin
            Atomic.incr t.rejected;
            (* read the request before answering: closing a socket with
               unread input sends a RST, which can destroy the 503 before
               the client reads it; the deadline keeps a silent or
               trickling client from stalling the acceptor *)
            ignore (read_head ~deadline:(Unix.gettimeofday () +. 0.1) fd);
            (try fixed_response fd 503 "text/plain" "too many connections\n"
             with _ -> ());
            try Unix.close fd with _ -> ()
          end)
    | exception Unix.Unix_error _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start ?(max_connections = 8) ~port handler =
  (* a client dropping mid-stream must surface as EPIPE, not kill the
     process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) ->
    Error ("socket: " ^ Unix.error_message e)
  | sock -> (
    try
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.listen sock 16;
      let actual_port =
        match Unix.getsockname sock with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      let t =
        {
          sock;
          t_port = actual_port;
          t_gen = Atomic.fetch_and_add generations 1 + 1;
          max_conn = max_connections;
          stopping = Atomic.make false;
          busy = Atomic.make 0;
          rejected = Atomic.make 0;
          qmu = Mutex.create ();
          qcond = Condition.create ();
          queue = Queue.create ();
          workers = [];
          acceptor = None;
          stopped = false;
        }
      in
      (* enough workers to keep a long-lived stream from starving the
         scrape endpoints, without parking one domain per connection slot
         on small machines (every live domain adds to the cost of each
         stop-the-world barrier) *)
      let worker_count =
        max 1 (min max_connections (max 2 (Domain.recommended_domain_count ())))
      in
      t.workers <-
        List.init worker_count (fun _ ->
            Domain.spawn (fun () -> worker_loop t handler));
      t.acceptor <- Some (Domain.spawn (fun () -> accept_loop t));
      Ok t
    with Unix.Unix_error (e, _, ctx) ->
      (try Unix.close sock with _ -> ());
      Error (Printf.sprintf "%s: %s" ctx (Unix.error_message e)))

let stop t =
  let first =
    with_lock t.qmu (fun () ->
        if t.stopped then false
        else begin
          t.stopped <- true;
          true
        end)
  in
  if first then begin
    Atomic.set t.stopping true;
    (* the accept loop notices the flag within its select timeout *)
    (match t.acceptor with Some d -> Domain.join d | None -> ());
    (try Unix.close t.sock with _ -> ());
    (* wake parked workers; in-flight streams see [stopping] on their next
       write and return *)
    with_lock t.qmu (fun () -> Condition.broadcast t.qcond);
    List.iter Domain.join t.workers;
    t.workers <- [];
    (* connections accepted but never picked up get closed unanswered *)
    with_lock t.qmu (fun () ->
        Queue.iter (fun fd -> try Unix.close fd with _ -> ()) t.queue;
        Queue.clear t.queue)
  end

(* ------------------------------------------------------------------ *)
(* Minimal loopback client                                             *)
(* ------------------------------------------------------------------ *)

let get ?(timeout_s = 10.) ~port path =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) ->
    Error ("socket: " ^ Unix.error_message e)
  | fd -> (
    let finally () = try Unix.close fd with _ -> () in
    try
      Fun.protect ~finally (fun () ->
          (try
             Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
             Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s
           with Unix.Unix_error _ -> ());
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          write_all fd
            (Printf.sprintf
               "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
               path);
          let buf = Buffer.create 4096 in
          let chunk = Bytes.create 4096 in
          let rec drain () =
            let n = Unix.read fd chunk 0 (Bytes.length chunk) in
            if n > 0 then begin
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
            end
          in
          (try drain () with End_of_file -> ());
          let raw = Buffer.contents buf in
          let sep =
            let n = String.length raw in
            let rec scan i =
              if i + 3 >= n then None
              else if raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
                      && raw.[i + 3] = '\n'
              then Some i
              else scan (i + 1)
            in
            scan 0
          in
          match sep with
          | None -> Error "malformed response (no header terminator)"
          | Some i -> (
            let head = String.sub raw 0 i in
            let body =
              String.sub raw (i + 4) (String.length raw - i - 4)
            in
            match String.split_on_char ' ' head with
            | _protocol :: code :: _ -> (
              match int_of_string_opt code with
              | Some status -> Ok (status, body)
              | None -> Error ("bad status line: " ^ head))
            | _ -> Error ("bad status line: " ^ head)))
    with
    | Unix.Unix_error (e, _, ctx) ->
      Error (Printf.sprintf "%s: %s" ctx (Unix.error_message e))
    | e -> Error (Printexc.to_string e))
