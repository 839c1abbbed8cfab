(* exec_batch: real execution on two OCaml domains, on the spread layout
   of the 62-core machine, each program under the Static and the Steal
   schedule in turn:
   - KMeans at paper inputs: a few large data-parallel tasks;
   - Tracking at paper inputs: a multi-stage pipeline sending many messages;
   - Fractal at doubled inputs: many independent blocks, where stealing helps.
   The interpreter and the exec scheduler do all the work, with long
   task bodies; synthesis is never called. *)

open Common

let domains = 2
let machine = Bamboo.Machine.with_cores Bamboo.Machine.tilepro64 62

let programs =
  [
    (Bamboo_benchmarks.Kmeans.benchmark, fun (d : Def.t) -> d.b_args);
    (Bamboo_benchmarks.Tracking.benchmark, fun d -> d.b_args);
    (Bamboo_benchmarks.Fractal.benchmark, fun d -> d.b_args_double);
  ]

let sched_name = function Bamboo.Exec.Static -> "static" | Steal -> "steal"

type exec = {
  name : string;
  sched : Bamboo.Exec.schedule;
  wall : float;                 (* timed around the call *)
  ok : bool;                    (* digest equals the reference run's *)
  x : Bamboo.Exec.result;
}

let run (c : ctx) =
  let setups, progs = setup c (List.map fst programs) in
  let inputs =
    List.map2
      (fun p (_, args) ->
        let args = args p.def in
        let layout = Bamboo.Exec.spread_layout p.prog machine in
        let reference =
          (Bamboo.Exec.reference_run ~args ~lock_groups:p.an.lock_groups p.prog layout).x_digest
        in
        (p, args, layout, reference))
      progs programs
  in
  let results =
    passes c (fun ~rep ->
        (* Alternate which schedule runs first so neither always
           inherits the other's heap. *)
        let order = if rep mod 2 = 0 then [ Bamboo.Exec.Static; Steal ] else [ Steal; Static ] in
        List.concat_map
          (fun (p, args, layout, reference) ->
            List.map
              (fun sched ->
                let req = Printf.sprintf "%s/%d/%s" p.def.b_name rep (sched_name sched) in
                let t0 = Clock.now () in
                let x =
                  Trace.span ~req "exec.execute_parallel" (fun () ->
                      Bamboo.execute_parallel ~args ~domains ~seed:(pass_seed c rep)
                        ~schedule:sched p.prog p.an layout)
                in
                let wall = Clock.elapsed t0 in
                { name = p.def.b_name; sched; wall; ok = x.x_digest = reference; x })
              order)
          inputs)
  in
  let execs = List.concat_map (fun (_, _, r) -> r) results in
  let fatal =
    List.filter_map
      (fun e ->
        if e.ok then None
        else
          Some
            (Printf.sprintf "%s under %s: digest differs from the sequential runtime's" e.name
               (sched_name e.sched)))
      execs
  in
  let pass_s = pass_seconds c results in
  let untraced_execs =
    List.concat_map (fun (t, _, r) -> if t then [] else List.map (fun e -> e.wall) r) results
  in
  let tail_pct, tail_s =
    match tail untraced_execs with Some pv -> pv | None -> (100.0, List.fold_left max 0.0 untraced_execs)
  in
  let traced = List.concat_map (fun (t, _, r) -> if t then r else []) results in
  let report =
    [
      metric "exec_s" "s" pass_s;
      metric "exec_tail_s" "s" tail_s;
      metric "exec_tail_percentile" "%" tail_pct;
      metric "executions" "count" (float (List.length untraced_execs));
    ]
    @ List.concat_map
        (fun (p, _, _, _) ->
          List.filter_map
            (fun sched ->
              match
                List.filter_map
                  (fun e -> if e.name = p.def.b_name && e.sched = sched then Some e.wall else None)
                  traced
              with
              | [] -> None
              | walls ->
                  Some
                    (metric
                       (Printf.sprintf "exec.wall_s.%s.%s" p.def.b_name (sched_name sched))
                       "s" (median walls)))
            [ Bamboo.Exec.Static; Steal ])
        inputs
  in
  let e2e =
    [ metric "throughput_per_s" "1/s" (float (List.length inputs * 2) /. pass_s) ]
  in
  let layers =
    if not c.traced then []
    else begin
      let ntr = float (List.length (List.filter (fun (t, _, _) -> t) results)) in
      let sumf f = float (sumi (List.map (fun e -> f e.x) traced)) in
      let wall = sum (List.map (fun e -> e.wall) traced) in
      let cycles = sumf (fun x -> x.x_cycles) in
      let seq = seq_cycles_per_s (List.map (fun (p, args, _, _) -> (p.def, args)) inputs) in
      let attempts = sumf (fun x -> x.x_steal_attempts) in
      [
        metric "interp.seq_cycles_per_s" "cycles/s" seq;
        metric "exec.cycles_per_s" "cycles/s" (cycles /. wall);
        metric "exec.lock_retries" "count" (sumf (fun x -> x.x_lock_retries) /. ntr);
        metric "exec.messages" "count" (sumf (fun x -> x.x_messages) /. ntr);
        metric "exec.idle_polls" "count" (sumf (fun x -> x.x_idle_polls) /. ntr);
        metric "exec.steal_attempts" "count" (attempts /. ntr);
        metric "exec.steals" "count" (sumf (fun x -> x.x_steals) /. ntr);
        metric "exec.steal_ratio" "ratio"
          (if attempts = 0.0 then 0.0 else sumf (fun x -> x.x_steals) /. attempts);
        metric "exec.steal_aborts" "count" (sumf (fun x -> x.x_steal_aborts) /. ntr);
        metric "exec.stolen_invocations" "count"
          (sumf (fun x -> x.x_stolen_invocations) /. ntr);
        metric "exec.body_share" "ratio" (cycles /. seq /. (wall *. float domains));
      ]
    end
  in
  {
    setups;
    e2e;
    report;
    layers;
    attempted = List.length execs;
    failed = List.length fatal;
    fatal;
    walls = List.map (fun (t, w, _) -> (t, w)) results;
  }
