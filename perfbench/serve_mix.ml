(* serve_mix: an open-loop Poisson stream of Fractal requests with shed
   admission, on one worker domain plus the generator thread.  Nine in
   ten requests are small, one in ten large.  Each pass runs an
   overload probe (capacity) and then the fixed rates [lo] and [hi].
   Many short concurrent requests: scheduler cost per invocation,
   admission and GC dominate the tail. *)

open Common

let domains = 1
let machine = Bamboo.Machine.with_cores Bamboo.Machine.tilepro64 62

let classes =
  [
    { Bamboo.Serve.rc_name = "small"; rc_args = [ "16"; "32"; "32"; "24" ]; rc_weight = 9 };
    { rc_name = "large"; rc_args = [ "32"; "96"; "96"; "48" ]; rc_weight = 1 };
  ]

(** Offered rates (req/s).  Capacity at one domain is about 700 req/s
    on the two-core host the benchmark is sized for; [hi] stays well
    below it, under the knee where queueing starts to lift the median,
    so no request is shed. *)
let lo = 150.0
let hi = 300.0
let overload = 2000.0

(** Generation windows (seconds) of one pass: overload probe, [lo], [hi]. *)
let windows quick = if quick then (0.1, 0.3, 0.3) else (1.0, 2.0, 2.5)

(** The latency limit on the small class's p99 that [serve_slo_rps]
    is judged against. *)
let slo_ms = 25.0

let config ~seed ~rate ~duration ~check ~admission =
  {
    Bamboo.Serve.default_config with
    sv_rate = rate;
    sv_duration = duration;
    sv_admission = admission;
    sv_classes = classes;
    sv_seed = seed;
    sv_domains = domains;
    sv_inflight = 2 * domains;
    sv_check = check;
  }

let small (r : Bamboo.Serve.report) = List.hd r.rp_classes

type pass = { cap : Bamboo.Serve.report; at_lo : Bamboo.Serve.report; at_hi : Bamboo.Serve.report }

let run (c : ctx) =
  let setups, progs = setup c [ Bamboo_benchmarks.Fractal.benchmark ] in
  let p = List.hd progs in
  let layout = Bamboo.Exec.spread_layout p.prog machine in
  let serve ?(admission = Bamboo.Serve.Shed) ?(check = false) ~seed ~req ~rate ~duration () =
    Trace.span ~req "serve.serve" (fun () ->
        Bamboo.serve ~config:(config ~seed ~rate ~duration ~check ~admission) p.prog p.an layout)
  in
  (* Closed-loop oracle stream: every request digest-checked against
     the sequential runtime. *)
  let checked =
    serve ~check:true ~seed:c.seed ~req:"Fractal/check/all" ~rate:200.0 ~duration:0.25 ()
  in
  let w_cap, w_lo, w_hi = windows c.quick in
  let results =
    passes c (fun ~rep ->
        let seed = pass_seed c rep in
        let req cls = Printf.sprintf "Fractal/%d/%s" rep cls in
        (* The overload probe blocks the generator instead of shedding,
           so the whole (seeded) schedule is served and capacity is
           measured over a fixed request mix, not over whichever
           requests happened to find room. *)
        let cap =
          serve ~admission:Block ~seed ~req:(req "overload") ~rate:overload ~duration:w_cap ()
        in
        (* Quick mode's streams are too short for shedding to mean
           anything: they block instead, so only a digest mismatch or
           a witness drift fails the self-test. *)
        let admission = if c.quick then Bamboo.Serve.Block else Shed in
        let at_lo = serve ~admission ~seed ~req:(req "lo") ~rate:lo ~duration:w_lo () in
        let at_hi = serve ~admission ~seed ~req:(req "hi") ~rate:hi ~duration:w_hi () in
        { cap; at_lo; at_hi })
  in
  let all = List.map (fun (_, _, r) -> r) results in
  let key x =
    List.map
      (fun (r : Bamboo.Serve.report) -> (r.rp_scheduled, r.rp_schedule_digest))
      [ x.cap; x.at_lo; x.at_hi ]
  in
  let fatal =
    (if checked.rp_mismatches = 0 then []
     else [ Printf.sprintf "%d served requests differ from the sequential runtime" checked.rp_mismatches ])
    @ witness c ~what:"arrival schedules" ~same:(fun a b -> key a = key b) all
  in
  let drops = sumi (List.map (fun x -> x.at_lo.rp_dropped + x.at_hi.rp_dropped) all) in
  let attempted =
    checked.rp_scheduled + sumi (List.map (fun x -> x.at_lo.rp_scheduled + x.at_hi.rp_scheduled) all)
  in
  let untraced = List.filter_map (fun (t, _, r) -> if t then None else Some r) results in
  let merged f =
    List.fold_left
      (fun h x -> Bamboo.Histogram.merge h (small (f x)).cr_hist)
      (Bamboo.Histogram.create ()) untraced
  in
  let ms_at h q = float (Bamboo.Histogram.quantile h q) /. 1e6 in
  let h_lo = merged (fun x -> x.at_lo) and h_hi = merged (fun x -> x.at_hi) in
  let tail_ms h =
    (* the highest percentile with at least ten samples beyond it *)
    let n = float (Bamboo.Histogram.count h) in
    let q = Float.max 0.5 ((n -. 10.0) /. n) in
    (100.0 *. q, ms_at h q)
  in
  let p99_ms h = ms_at h 0.99 in
  let served_frac f =
    float (sumi (List.map (fun x -> (f x).Bamboo.Serve.rp_served) untraced))
    /. float (sumi (List.map (fun x -> (f x).Bamboo.Serve.rp_scheduled) untraced))
  in
  let drain f w = median (List.map (fun x -> (f x).Bamboo.Serve.rp_wall -. w) untraced) in
  let meets f h w = p99_ms h <= slo_ms && served_frac f >= 0.99 && drain f w < 0.1 in
  let slo_rps =
    if meets (fun x -> x.at_hi) h_hi w_hi then hi
    else if meets (fun x -> x.at_lo) h_lo w_lo then lo
    else 0.0
  in
  let capacity = seed_mean c (fun (_, _, x) -> x.cap.rp_sustained) results in
  let tail_lo_pct, tail_lo = tail_ms h_lo and tail_hi_pct, tail_hi = tail_ms h_hi in
  let report =
    [
      metric "serve_capacity_rps" "1/s" capacity;
      metric "serve_p50_ms.lo" "ms" (ms_at h_lo 0.5);
      metric "serve_tail_ms.lo" "ms" tail_lo;
      metric "serve_tail_percentile.lo" "%" tail_lo_pct;
      metric "serve_p99_ms.lo" "ms" (p99_ms h_lo);
      metric "serve_p50_ms.hi" "ms" (ms_at h_hi 0.5);
      metric "serve_tail_ms.hi" "ms" tail_hi;
      metric "serve_tail_percentile.hi" "%" tail_hi_pct;
      metric "serve_p99_ms.hi" "ms" (p99_ms h_hi);
      metric "serve_slo_rps" "1/s" slo_rps;
      metric "serve_samples.lo" "count" (float (Bamboo.Histogram.count h_lo));
      metric "serve_samples.hi" "count" (float (Bamboo.Histogram.count h_hi));
      metric "serve_generator_stall_s" "s"
        (sum (List.map (fun x -> x.at_hi.rp_stall_seconds) untraced));
      (* wall time after the [hi] window closed until the last request
         completed (negative when it completed before the window closed) *)
      metric "serve.drain_s" "s" (drain (fun x -> x.at_hi) w_hi);
    ]
  in
  let e2e = [ metric "throughput_per_s" "1/s" capacity ] in
  let layers =
    if not c.traced then []
    else begin
      let traced = List.filter_map (fun (t, _, r) -> if t then Some r else None) results in
      let ntr = float (List.length traced) in
      let stats = List.concat_map (fun x -> Array.to_list x.at_hi.rp_core_stats) traced in
      let sumc f = float (sumi (List.map f stats)) in
      let wall = sum (List.map (fun x -> x.at_hi.rp_wall) traced) in
      let cycles = sumc (fun s -> s.Bamboo.Exec.cs_busy_cycles) in
      let seq =
        seq_cycles_per_s (List.map (fun (rc : Bamboo.Serve.request_class) -> (p.def, rc.rc_args)) classes)
      in
      let attempts = sumc (fun s -> s.cs_steal_attempts) in
      [
        metric "interp.seq_cycles_per_s" "cycles/s" seq;
        metric "exec.cycles_per_s" "cycles/s" (cycles /. wall);
        metric "exec.idle_polls" "count" (sumc (fun s -> s.cs_idle_polls) /. ntr);
        metric "exec.steal_attempts" "count" (attempts /. ntr);
        metric "exec.steals" "count" (sumc (fun s -> s.cs_steals) /. ntr);
        metric "exec.steal_ratio" "ratio"
          (if attempts = 0.0 then 0.0 else sumc (fun s -> s.cs_steals) /. attempts);
        metric "exec.steal_aborts" "count" (sumc (fun s -> s.cs_steal_aborts) /. ntr);
        metric "exec.stolen_invocations" "count" (sumc (fun s -> s.cs_stolen) /. ntr);
        metric "exec.body_share" "ratio" (cycles /. seq /. (wall *. float domains));
        metric "serve.sustained_rps" "1/s"
          (median (List.map (fun x -> x.at_hi.rp_sustained) traced));
        metric "serve.drop_frac" "ratio"
          (float (sumi (List.map (fun x -> x.at_lo.rp_dropped + x.at_hi.rp_dropped) traced))
          /. float (sumi (List.map (fun x -> x.at_lo.rp_scheduled + x.at_hi.rp_scheduled) traced)));
        metric "serve.idle_polls" "count"
          (sumc (fun s -> s.cs_idle_polls) /. float (sumi (List.map (fun x -> x.at_hi.rp_served) traced)));
      ]
    end
  in
  {
    setups;
    e2e;
    report;
    layers;
    attempted;
    failed = List.length fatal + drops;
    fatal;
    walls = List.map (fun (t, w, _) -> (t, w)) results;
  }
