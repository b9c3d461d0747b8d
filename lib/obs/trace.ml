let now () = Unix.gettimeofday ()

type span = {
  sp_name : string;
  sp_start : float;  (* Unix.gettimeofday seconds *)
  mutable sp_dur : float;  (* seconds; negative while the span is open *)
  mutable sp_children : span list;  (* reverse completion order *)
  mutable sp_attrs : (string * string) list;  (* reverse order *)
}

let start name =
  {
    sp_name = name;
    sp_start = now ();
    sp_dur = -1.;
    sp_children = [];
    sp_attrs = [];
  }

let finish sp = if sp.sp_dur < 0. then sp.sp_dur <- now () -. sp.sp_start

let attach parent child = parent.sp_children <- child :: parent.sp_children

let child parent name =
  let sp = start name in
  attach parent sp;
  sp

let annotate sp key value = sp.sp_attrs <- (key, value) :: sp.sp_attrs

let timed parent name f =
  let sp = child parent name in
  Fun.protect ~finally:(fun () -> finish sp) f

let duration_ms sp = (if sp.sp_dur < 0. then now () -. sp.sp_start else sp.sp_dur) *. 1000.
let start_s sp = sp.sp_start

let children sp = List.rev sp.sp_children
let attrs sp = List.rev sp.sp_attrs
let name sp = sp.sp_name

let find sp n =
  List.find_opt (fun c -> String.equal c.sp_name n) (children sp)

let rec iter f sp =
  f sp;
  List.iter (iter f) (children sp)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let to_string sp =
  let buf = Buffer.create 256 in
  let total = duration_ms sp in
  let rec go indent s =
    Buffer.add_string buf (String.make (indent * 2) ' ');
    let d = duration_ms s in
    Buffer.add_string buf
      (Printf.sprintf "%-*s %8.3f ms" (max 1 (28 - (indent * 2))) s.sp_name d);
    if total > 0. then
      Buffer.add_string buf (Printf.sprintf "  (%5.1f%%)" (100. *. d /. total));
    List.iter
      (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "  %s=%s" k v))
      (attrs s);
    Buffer.add_char buf '\n';
    List.iter (go (indent + 1)) (children s)
  in
  go 0 sp;
  Buffer.contents buf

let rec to_json sp =
  Json.Obj
    ([
       ("name", Json.String sp.sp_name);
       ("ms", Json.Float (duration_ms sp));
     ]
    @ (match attrs sp with
      | [] -> []
      | a ->
        [ ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) a)) ])
    @
    match children sp with
    | [] -> []
    | cs -> [ ("children", Json.List (List.map to_json cs)) ])

(* Chrome trace-event format (the about://tracing / Perfetto JSON array
   flavor): one "X" (complete) event per span, timestamps in microseconds
   relative to the earliest root so the viewer opens near t=0. Every span
   renders on one lane (tid 1), labelled "engine" by a thread_name
   metadata event. *)
let to_chrome_json roots =
  let epoch =
    List.fold_left
      (fun acc sp -> Float.min acc sp.sp_start)
      Float.infinity roots
  in
  let epoch = if Float.is_finite epoch then epoch else 0. in
  let events = ref [] in
  let emit sp =
    let args =
      match attrs sp with
      | [] -> []
      | a ->
        [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) a)) ]
    in
    events :=
      Json.Obj
        ([
           ("name", Json.String sp.sp_name);
           ("ph", Json.String "X");
           ("ts", Json.Float ((sp.sp_start -. epoch) *. 1e6));
           ("dur", Json.Float (duration_ms sp *. 1e3));
           ("pid", Json.Int 1);
           ("tid", Json.Int 1);
         ]
        @ args)
      :: !events
  in
  List.iter (iter emit) roots;
  let lane_meta =
    if !events = [] then []
    else
      [
        Json.Obj
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int 1);
            ("tid", Json.Int 1);
            ("args", Json.Obj [ ("name", Json.String "engine") ]);
          ];
      ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (lane_meta @ List.rev !events));
      ("displayTimeUnit", Json.String "ms");
    ]
