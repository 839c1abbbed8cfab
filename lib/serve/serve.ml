(** The streaming serve runtime: open-loop load over the domains
    backend.

    Batch entry points measure makespan; this module measures what the
    ROADMAP's north star actually asks for — sustained throughput and
    tail latency under continuous traffic.  It drives an
    {!Bamboo_exec.Exec} session (workers spawned once, epoch draining
    instead of one-shot quiescence) from a deterministic open-loop
    load generator on the caller's thread:

    - {b Arrival determinism}: the entire arrival schedule — times,
      request classes, request ids — is precomputed from the root PRNG
      seed before the session opens ({!gen_schedule}).  Identical
      [seed]/[rate]/[duration]/[classes] produce the identical
      schedule at any domain count and either [--schedule] mode.
    - {b Open loop}: arrivals fire at their scheduled instants whether
      or not earlier requests have finished, and a request's latency
      is measured from its {e scheduled} arrival, not its injection —
      queueing delay under overload is measured, not hidden
      (coordinated omission).
    - {b Backpressure}: arrivals pass through a bounded admission
      mailbox ({!Bamboo_support.Mailbox.Bounded}) plus an in-flight
      window.  Under [Shed] a full waiting room drops the request
      (counted per class); under [Block] the generator stalls until
      space frees — the open loop degrades to closed, visible as
      latency blow-up (by the scheduled-arrival rule) rather than
      drops.
    - {b Latency}: request completion is detected by the backend's
      per-request work counters ({!Bamboo_exec.Exec.tracker}) and
      recorded on whichever domain consumed the last unit of work,
      into that scheduler core's own {!Histogram} row — no shared
      recording state; rows merge at report time.
    - {b Oracle}: under [sv_check] the stream runs closed-loop (the
      next request is injected only once the previous one is checked)
      and every request's output/heap delta is digest-checked against
      the sequential runtime, putting the whole injection path
      on the same equivalence oracle as batch exec.

    Long-running sessions stay bounded: the session is opened with
    retention off (no output buffers or final-heap lists grow), and
    the completion watermark advances the backend's trim watermark so
    parked parameter-set residue from finished requests is purged. *)

module Ir = Bamboo_ir.Ir
module Machine = Bamboo_machine.Machine
module Layout = Bamboo_machine.Layout
module Runtime = Bamboo_runtime.Runtime
module Exec = Bamboo_exec.Exec
module Canon = Bamboo_exec.Canon
module Mailbox = Bamboo_support.Mailbox
module Clock = Bamboo_support.Clock
module Prng = Bamboo_support.Prng

(* ------------------------------------------------------------------ *)
(* Configuration *)

type arrivals = Poisson | Uniform

type admission =
  | Block  (* stall the generator while the waiting room is full *)
  | Shed   (* drop arrivals that find the waiting room full *)

(** One request class: a name for reporting, the startup arguments
    each request of the class is injected with, and a weight for the
    deterministic class draw. *)
type request_class = { rc_name : string; rc_args : string list; rc_weight : int }

type config = {
  sv_rate : float;            (* offered load, requests/second *)
  sv_duration : float;        (* generation window, seconds *)
  sv_arrivals : arrivals;
  sv_admission : admission;
  sv_classes : request_class list;
  sv_seed : int;
  sv_domains : int;
  sv_schedule : Exec.schedule;
  sv_queue : int;             (* admission waiting-room capacity *)
  sv_inflight : int;          (* max requests in execution at once *)
  sv_check : bool;            (* closed loop + per-request digest check *)
  sv_keep_output : bool;      (* retain program output (tests/debug only:
                                 unbounded in a long run) *)
}

let default_config =
  {
    sv_rate = 100.0;
    sv_duration = 2.0;
    sv_arrivals = Poisson;
    sv_admission = Shed;
    sv_classes = [];
    sv_seed = 0;
    sv_domains = 4;
    sv_schedule = Exec.Static;
    sv_queue = 64;
    sv_inflight = 8;
    sv_check = false;
    sv_keep_output = false;
  }

(* ------------------------------------------------------------------ *)
(* Arrival schedule *)

type arrival = {
  a_id : int;                 (* request id: dense, injection order *)
  a_ns : int64;               (* scheduled arrival, ns after stream start *)
  a_class : int;              (* index into sv_classes *)
}

(** Hard cap on schedule length — the schedule is materialized up
    front (that is what makes it deterministic), so a typo'd rate must
    fail loudly instead of allocating without bound. *)
let max_requests = 2_000_000

(** Precompute the full arrival schedule from the seed: inter-arrival
    gaps are Exp(1/rate) under [Poisson] (inverse-CDF over the
    deterministic PRNG) or the constant [1/rate] under [Uniform], and
    each arrival's class is a weighted draw from the same stream.  The
    result is a pure function of the arguments — domains, schedule
    mode and admission cannot perturb it. *)
let gen_schedule ~seed ~rate ~duration ~arrivals (classes : request_class array) :
    arrival array =
  if rate <= 0.0 then invalid_arg "Serve.gen_schedule: rate must be positive";
  if duration <= 0.0 then invalid_arg "Serve.gen_schedule: duration must be positive";
  if Array.length classes = 0 then invalid_arg "Serve.gen_schedule: no request classes";
  Array.iter
    (fun c -> if c.rc_weight < 1 then invalid_arg "Serve.gen_schedule: class weight < 1")
    classes;
  let rng = Prng.create ~seed in
  let total_weight = Array.fold_left (fun a c -> a + c.rc_weight) 0 classes in
  let pick_class () =
    let r = Prng.int rng total_weight in
    let rec scan i acc =
      let acc = acc + classes.(i).rc_weight in
      if r < acc then i else scan (i + 1) acc
    in
    scan 0 0
  in
  let rec gen acc t id =
    let gap =
      match arrivals with
      | Uniform -> 1.0 /. rate
      | Poisson ->
          (* u in [0,1) so 1-u in (0,1]: log never sees zero *)
          let u = Prng.float rng 1.0 in
          -.log (1.0 -. u) /. rate
    in
    let t = t +. gap in
    if t > duration then List.rev acc
    else if id >= max_requests then
      invalid_arg
        (Printf.sprintf "Serve.gen_schedule: rate x duration exceeds %d requests"
           max_requests)
    else
      gen ({ a_id = id; a_ns = Int64.of_float (t *. 1e9); a_class = pick_class () } :: acc) t
        (id + 1)
  in
  Array.of_list (gen [] 0.0 0)

(** MD5 over the whole schedule — the determinism witness reported and
    compared by the tests. *)
let schedule_digest (schedule : arrival array) =
  let b = Buffer.create (Array.length schedule * 16) in
  Array.iter
    (fun a -> Buffer.add_string b (Printf.sprintf "%d:%Ld:%d;" a.a_id a.a_ns a.a_class))
    schedule;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Reports *)

type class_report = {
  cr_name : string;
  cr_served : int;
  cr_dropped : int;
  cr_p50_ns : int;
  cr_p95_ns : int;
  cr_p99_ns : int;
  cr_max_ns : int;
  cr_mean_ns : float;
  cr_hist : Histogram.t;      (* merged across cores, for export *)
}

type report = {
  rp_scheduled : int;           (* arrivals generated *)
  rp_served : int;
  rp_dropped : int;
  rp_mismatches : int;          (* digest-check failures (sv_check only) *)
  rp_offered : float;           (* configured rate, req/s *)
  rp_sustained : float;         (* served / wall (drain included) *)
  rp_wall : float;              (* stream start -> last completion drained *)
  rp_stall_seconds : float;     (* generator time stalled under Block *)
  rp_schedule_digest : string;
  rp_invocations : int;
  rp_core_stats : Exec.core_stats array;
  rp_classes : class_report list;
  rp_output : string;           (* "" unless sv_keep_output *)
}

(* ------------------------------------------------------------------ *)
(* The serve loop *)

let run ?lock_groups ~(config : config) (prog : Ir.program) (layout : Layout.t) : report =
  let classes = Array.of_list config.sv_classes in
  let nclasses = Array.length classes in
  let schedule =
    gen_schedule ~seed:config.sv_seed ~rate:config.sv_rate ~duration:config.sv_duration
      ~arrivals:config.sv_arrivals classes
  in
  let n = Array.length schedule in
  let ncores = layout.Layout.machine.Machine.cores in
  let window = max 1 config.sv_inflight in
  let capacity = max 1 config.sv_queue in
  (* Per-core-per-class histogram rows; row [ncores] belongs to the
     injector (a request whose startup object satisfies no consumer
     completes during injection itself).  Each row is written by
     exactly one domain while running and merged after the join. *)
  let hists = Array.init (ncores + 1) (fun _ -> Array.init nclasses (fun _ -> Histogram.create ())) in
  let completed = Atomic.make 0 in
  let done_mark = Array.make n 0 in    (* 1 = complete; plain int writes *)
  let dropped = Array.make n false in  (* generator thread only *)
  let t0_ns = Clock.now_ns () in
  let tracker =
    {
      Exec.tk_pending = Array.init n (fun _ -> Atomic.make 0);
      tk_done =
        (fun ~req ~core ->
          let lat =
            Int64.to_int (Int64.sub (Clock.now_ns ()) (Int64.add t0_ns schedule.(req).a_ns))
          in
          Histogram.add hists.(core).(schedule.(req).a_class) (max 1 lat);
          done_mark.(req) <- 1;
          Atomic.incr completed);
    }
  in
  let ses =
    Exec.open_session ?lock_groups ~domains:config.sv_domains ~seed:config.sv_seed
      ~schedule:config.sv_schedule ~tracker
      ~retain:(config.sv_check || config.sv_keep_output) prog layout
  in
  (* Sequential-oracle digests, one per class (requests of a class are
     identical closed systems, so one reference run covers them). *)
  let oracle = Array.make (max 1 nclasses) None in
  let mismatches = ref 0 in
  let check_request req =
    let got = Exec.digest_and_reset ses in
    let cls = schedule.(req).a_class in
    let expect =
      match oracle.(cls) with
      | Some d -> d
      | None ->
          let r = Runtime.run ~args:classes.(cls).rc_args ?lock_groups prog layout in
          let d = Canon.digest prog ~output:r.Runtime.r_output ~objects:r.Runtime.r_objects in
          oracle.(cls) <- Some d;
          d
    in
    if got <> expect then incr mismatches
  in
  (* Admission waiting room: the bounded mailbox is the transport (and
     enforces its capacity as a backstop); admission checks combined
     occupancy — queued plus drained-but-not-yet-injectable — so the
     advertised bound holds exactly. *)
  let q = Mailbox.Bounded.create ~capacity in
  let backlog = Queue.create () in
  let injected = ref 0 in
  let last_injected = ref (-1) in      (* schedule id of the newest injection *)
  let drops = ref 0 in
  let class_drops = Array.make (max 1 nclasses) 0 in
  let watermark = ref 0 in
  let stall_ns = ref 0L in
  let inflight () = !injected - Atomic.get completed in
  let occupancy () = Mailbox.Bounded.length q + Queue.length backlog in
  (* Advance over completed/shed requests in order; under sv_check the
     in-order walk is also where each request's digest is verified. *)
  let advance_watermark () =
    let w0 = !watermark in
    let continue = ref true in
    while !continue && !watermark < n do
      let w = !watermark in
      if dropped.(w) then incr watermark
      else if done_mark.(w) <> 0 then begin
        if config.sv_check then check_request w;
        incr watermark
      end
      else continue := false
    done;
    if !watermark > w0 then Exec.advance_trim ses !watermark
  in
  (* Under sv_check the stream is closed-loop: the next request goes
     in only once every injected one is past the watermark, i.e.
     digest-checked.  Gating on [inflight ()] instead would race: a
     request completing between [advance_watermark] and the injection
     reads as not in flight, so the next one would start before its
     predecessor's delta was checked and both digests would mismatch. *)
  let may_inject () =
    if config.sv_check then !last_injected < !watermark else inflight () < window
  in
  let pump () =
    advance_watermark ();
    if (not (Mailbox.Bounded.is_empty q)) && Queue.is_empty backlog then
      List.iter (fun a -> Queue.add a backlog) (Mailbox.Bounded.drain q);
    while may_inject () && not (Queue.is_empty backlog) do
      let a = Queue.take backlog in
      incr injected;
      last_injected := a.a_id;
      Exec.inject ses ~req:a.a_id classes.(a.a_class).rc_args
    done
  in
  let crashed () = Exec.session_crashed ses <> None in
  (* Generator: fire every arrival at its scheduled instant, pumping
     injections while waiting.  Sleeps are short so the pump keeps
     feeding the backend between arrivals. *)
  let i = ref 0 in
  while !i < n && not (crashed ()) do
    let a = schedule.(!i) in
    let rec wait_for_arrival () =
      let remaining = Int64.sub (Int64.add t0_ns a.a_ns) (Clock.now_ns ()) in
      if remaining > 0L then begin
        pump ();
        Unix.sleepf (Float.min (Int64.to_float remaining *. 1e-9) 0.0005);
        if not (crashed ()) then wait_for_arrival ()
      end
    in
    wait_for_arrival ();
    (match config.sv_admission with
    | Shed ->
        if occupancy () >= capacity then begin
          dropped.(a.a_id) <- true;
          class_drops.(a.a_class) <- class_drops.(a.a_class) + 1;
          incr drops
        end
        else ignore (Mailbox.Bounded.try_push q a : bool)
    | Block ->
        if occupancy () >= capacity then begin
          let s0 = Clock.now_ns () in
          while occupancy () >= capacity && not (crashed ()) do
            pump ();
            Unix.sleepf 0.0002
          done;
          stall_ns := Int64.add !stall_ns (Clock.elapsed_ns s0)
        end;
        if not (crashed ()) then ignore (Mailbox.Bounded.try_push q a : bool));
    pump ();
    incr i
  done;
  (* Drain: no further admissions; finish everything admitted. *)
  while
    (inflight () > 0 || not (Queue.is_empty backlog) || not (Mailbox.Bounded.is_empty q))
    && not (crashed ())
  do
    pump ();
    Unix.sleepf 0.0002
  done;
  advance_watermark ();
  let wall = Int64.to_float (Clock.elapsed_ns t0_ns) *. 1e-9 in
  let x = Exec.close_session ses in
  (* Workers are joined: every counter and histogram row is now
     plainly visible. *)
  let served = Atomic.get completed in
  let class_served = Array.make (max 1 nclasses) 0 in
  Array.iteri
    (fun r (a : arrival) ->
      if done_mark.(r) <> 0 then class_served.(a.a_class) <- class_served.(a.a_class) + 1)
    schedule;
  let class_reports =
    List.of_seq
      (Seq.mapi
         (fun c (rc : request_class) ->
           let h =
             Array.fold_left
               (fun acc row -> Histogram.merge acc row.(c))
               (Histogram.create ()) hists
           in
           {
             cr_name = rc.rc_name;
             cr_served = class_served.(c);
             cr_dropped = class_drops.(c);
             cr_p50_ns = Histogram.quantile h 0.50;
             cr_p95_ns = Histogram.quantile h 0.95;
             cr_p99_ns = Histogram.quantile h 0.99;
             cr_max_ns = Histogram.max_value h;
             cr_mean_ns = Histogram.mean h;
             cr_hist = h;
           })
         (List.to_seq config.sv_classes))
  in
  {
    rp_scheduled = n;
    rp_served = served;
    rp_dropped = !drops;
    rp_mismatches = !mismatches;
    rp_offered = config.sv_rate;
    rp_sustained = (if wall > 0.0 then float_of_int served /. wall else 0.0);
    rp_wall = wall;
    rp_stall_seconds = Int64.to_float !stall_ns *. 1e-9;
    rp_schedule_digest = schedule_digest schedule;
    rp_invocations = x.x_invocations;
    rp_core_stats = x.x_core_stats;
    rp_classes = class_reports;
    rp_output = (if config.sv_keep_output then x.x_output else "");
  }
