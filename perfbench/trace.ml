(* Spans recorded by the benchmark around its calls into the library.

   A span is opened by the benchmark's own code around one public call
   (or around a whole pass), never inside the library, so tracing adds
   only a clock read and a [Gc.quick_stat] per boundary.  Spans are
   kept in memory and written out once, at the end of the run.  Only
   the benchmark's main thread records, so the stack needs no lock. *)

module Clock = Bamboo.Clock

type span = {
  id : int;
  name : string;        (* "<layer>.<call>" *)
  parent : int;         (* -1 for a root span *)
  req : string;         (* request id: program/rep/class *)
  t0 : float;           (* seconds since the run started *)
  t1 : float;
  minor_w : float;      (* Gc.quick_stat deltas across the span *)
  major_w : float;
}

let enabled = ref false
let epoch = Clock.now ()
let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(** [span ~req name f] runs [f ()], recording a span around it when
    tracing is enabled. *)
let span ?(req = "") name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let g0 = Gc.quick_stat () in
    let t0 = Clock.now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Clock.now () in
        let g1 = Gc.quick_stat () in
        stack := List.tl !stack;
        recorded :=
          {
            id;
            name;
            parent;
            req;
            t0 = t0 -. epoch;
            t1 = t1 -. epoch;
            minor_w = g1.minor_words -. g0.minor_words;
            major_w = g1.major_words -. g0.major_words;
          }
          :: !recorded)
  end

let spans () = List.rev !recorded

(** Self time of every span: its duration minus the time its children
    cover.  Children of one parent are sequential (one recording
    thread), so their durations add without overlap. *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !recorded;
  List.map
    (fun s -> (s, s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    (spans ())

(** Summed self time of the spans named [name]. *)
let self_seconds name =
  List.fold_left (fun acc (s, t) -> if s.name = name then acc +. t else acc) 0.0 (self_times ())

(** Summed (minor, major) words allocated under the spans of [layer],
    counting each span's own allocation only (children subtracted). *)
let layer_words layer =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let mi, ma = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (mi +. s.minor_w, ma +. s.major_w)
      end)
    !recorded;
  List.fold_left
    (fun (mi, ma) s ->
      if layer_of s.name <> layer then (mi, ma)
      else begin
        let cmi, cma = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt child s.id) in
        (mi +. s.minor_w -. cmi, ma +. s.major_w -. cma)
      end)
    (0.0, 0.0) !recorded

(** Write every span as one JSON object per line. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"parent\": %d, \"req\": %S, \"start_s\": %.9f, \
         \"end_s\": %.9f, \"minor_words\": %.0f, \"major_words\": %.0f}\n"
        s.id s.name s.parent s.req s.t0 s.t1 s.minor_w s.major_w)
    (spans ());
  close_out oc
