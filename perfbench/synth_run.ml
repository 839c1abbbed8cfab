(* synth_run: the `bamboo run` path — profile, synthesize a layout for
   the 62-core TILEPro64, run it on the cycle-model runtime — over all
   seven built-in programs at their paper inputs.  DSA search dominates;
   profiling and the runtime take the rest.  Neither [exec] nor [serve]
   is called: this is the workload that bypasses them. *)

open Common
module Registry = Bamboo_benchmarks.Registry

(** The synthesis settings `bamboo synth` and `bamboo run` give users
    by default; the self-test fails if the CLI's defaults move away.
    The DSA seed is {!Common.pass_seed}. *)
let cores = 62
let starts = 8
let machine = Bamboo.Machine.with_cores Bamboo.Machine.tilepro64 cores

(** Evaluation width: one domain.  Outcomes are identical for any
    width, but the time is not robust at two: DSA's lockstep rounds
    (and every minor collection) wait for both domains.  On a
    two-core host, synthesizing KMeans and Tracking took 5.1 to 5.4 s
    at two domains and 6.6 to 7.0 s at one; beside one other busy
    process, 7.7 to 8.7 s at two and 7.3 to 8.3 s at one.  A host
    shared with other tenants takes CPU away like that process. *)
let jobs = 1

type run = {
  name : string;
  ok : bool;                           (* b_check on the runtime output *)
  seq_cycles : int;                    (* 1-core profile run *)
  model_cycles : int;                  (* cycle-model run on the layout *)
  o : Bamboo.Dsa.outcome;
  r : Bamboo.Runtime.result;
}

(* Everything a repetition must reproduce bit for bit. *)
let witness_key x =
  (x.model_cycles, x.o.best_cycles, x.o.evaluated, x.o.cache_hits, x.o.pruned, x.o.restarts)

let run_one ~seed ~rep (p : prepared) =
  let args = p.def.b_args in
  let req = Printf.sprintf "%s/%d/run" p.def.b_name rep in
  let prof = Trace.span ~req "profile.profile" (fun () -> Bamboo.profile ~args p.prog) in
  let o =
    Trace.span ~req "synth.synthesize" (fun () ->
        Bamboo.synthesize ~jobs ~starts ~seed p.prog p.an prof machine)
  in
  let r = Trace.span ~req "runtime.execute" (fun () -> Bamboo.execute ~args p.prog p.an o.best) in
  {
    name = p.def.b_name;
    ok = p.def.b_check r.r_output;
    seq_cycles = prof.p_total_cycles;
    model_cycles = r.r_total_cycles;
    o;
    r;
  }

let run (c : ctx) =
  let setups, progs = setup c Registry.all in
  let results =
    passes c (fun ~rep ->
        List.map (run_one ~seed:(pass_seed c rep) ~rep) progs)
  in
  (* the first pass of every seed *)
  let per_seed =
    List.concat
      (List.filteri (fun rep _ -> rep < seeds_per_run c) (List.map (fun (_, _, r) -> r) results))
  in
  let fatal =
    List.concat_map
      (fun (_, _, runs) ->
        List.filter_map (fun x -> if x.ok then None else Some (x.name ^ ": output check failed")) runs)
      results
    @ witness c ~what:"model cycles or DSA counters"
        ~same:(fun a b -> List.map witness_key a = List.map witness_key b)
        (List.map (fun (_, _, r) -> r) results)
  in
  let walls = List.map (fun (t, w, _) -> (t, w)) results in
  let pass_s = pass_seconds c results in
  let nprog = float_of_int (List.length progs) in
  let speedup = geomean (List.map (fun x -> float x.seq_cycles /. float x.model_cycles) per_seed) in
  let report =
    [
      metric "synth_run_s" "s" pass_s;
      metric "model_speedup_geo" "x" speedup;
      metric "passes" "count" (float (List.length (List.filter (fun (t, _, _) -> not t) results)));
    ]
  in
  let e2e = [ metric "throughput_per_s" "1/s" (nprog /. pass_s) ] in
  let layers =
    if not c.traced then []
    else begin
      let traced = List.filter_map (fun (t, _, r) -> if t then Some r else None) results in
      let ntr = float (List.length traced) in
      let all = List.concat traced in
      let sumf f = float (sumi (List.map f all)) in
      let dsa_s = Trace.self_seconds "synth.synthesize" in
      let prof_s = Trace.self_seconds "profile.profile" in
      let rt_s = Trace.self_seconds "runtime.execute" in
      let evaluated = sumf (fun x -> x.o.evaluated) and hits = sumf (fun x -> x.o.cache_hits) in
      let pruned = sumf (fun x -> x.o.pruned) in
      let seq =
        seq_cycles_per_s (List.map (fun p -> (p.def, p.def.b_args)) progs)
      in
      [
        metric "profile.cycles_per_s" "cycles/s" (sumf (fun x -> x.seq_cycles) /. prof_s);
        metric "interp.seq_cycles_per_s" "cycles/s" seq;
        metric "synth.evaluated" "count" (evaluated /. ntr);
        metric "synth.cache_hits" "count" (hits /. ntr);
        metric "synth.hit_ratio" "ratio" (hits /. (hits +. evaluated));
        metric "synth.pruned" "count" (pruned /. ntr);
        metric "synth.prune_ratio" "ratio" (pruned /. evaluated);
        metric "synth.restarts" "count" (sumf (fun x -> x.o.restarts) /. ntr);
        metric "synth.evals_per_s" "1/s" (evaluated /. dsa_s);
        metric "sim.events_per_s" "1/s" (sumf (fun x -> x.o.sim_events) /. dsa_s);
        metric "runtime.cycles_per_s" "cycles/s" (sumf (fun x -> x.model_cycles) /. rt_s);
        metric "runtime.failed_locks" "count" (sumf (fun x -> x.r.r_failed_locks) /. ntr);
        metric "runtime.messages" "count" (sumf (fun x -> x.r.r_messages) /. ntr);
      ]
      @ List.map
          (fun p ->
            let name = p.def.b_name in
            metric ("sim.est_error_pct." ^ name) "%"
              (median
                 (List.filter_map
                    (fun x ->
                      if x.name <> name then None
                      else
                        Some (100.0 *. float (abs (x.o.best_cycles - x.model_cycles)) /. float x.model_cycles))
                    all)))
          progs
    end
  in
  {
    setups;
    e2e;
    report;
    layers;
    attempted = List.length results * List.length progs;
    failed = List.length fatal;
    fatal;
    walls;
  }
