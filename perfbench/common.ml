(* What the three workloads share: the run context, statistics, the
   per-program set-up, and the measured pass loop. *)

module Clock = Bamboo.Clock
module Def = Bamboo_benchmarks.Bench_def

type metric = { name : string; unit : string; value : float }

let metric name unit value = { name; unit; value }

type ctx = {
  seed : int;          (* workload seed: DSA, exec and arrival seeds derive from it *)
  seconds : float;     (* length of the measured phase *)
  traced : bool;
  quick : bool;        (* minimum sizes: one seed, short streams *)
}

(** What a workload hands back to [Bench]. *)
type outcome = {
  setups : float list;        (* seconds of each repeated set-up *)
  e2e : metric list;          (* throughput_per_s *)
  report : metric list;       (* the workload's own end-to-end metrics, by name *)
  layers : metric list;       (* per-layer counters and rates (traced run only) *)
  attempted : int;            (* checked operations *)
  failed : int;               (* mismatches, witness drifts and drops *)
  fatal : string list;        (* mismatches and witness drifts, described *)
  walls : (bool * float) list;(* (traced, wall seconds) of every pass *)
}

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sorted l = List.sort compare l

let median l =
  match sorted l with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum l = List.fold_left ( +. ) 0.0 l
let sumi l = List.fold_left ( + ) 0 l

let geomean l =
  match l with [] -> nan | _ -> exp (sum (List.map log l) /. float_of_int (List.length l))

(** The highest percentile with at least ten samples beyond it, as
    (percentile, value); [None] below eleven samples. *)
let tail l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n < 11 then None
  else Some (100.0 *. float_of_int (n - 10) /. float_of_int n, a.(n - 11))

(* ------------------------------------------------------------------ *)
(* Set-up: everything a program needs before it runs *)

type prepared = { def : Def.t; prog : Bamboo.Ir.program; an : Bamboo.analysis }

let prepare ~req (def : Def.t) =
  let req = def.b_name ^ "/" ^ req in
  let prog = Trace.span ~req "frontend.compile" (fun () -> Bamboo.compile def.b_source) in
  let an = Trace.span ~req "analysis.analyse" (fun () -> Bamboo.analyse prog) in
  ignore
    (Trace.span ~req "analysis.effects" (fun () -> Bamboo.Effects.analyse prog an.astgs)
      : Bamboo.Effects.t);
  let diags = Trace.span ~req "check.check" (fun () -> Bamboo.check prog an) in
  if List.exists (fun (d : Bamboo.Diagnostic.t) -> d.severity = Bamboo.Diagnostic.Error) diags
  then failwith (def.b_name ^ ": the static verifier reports errors");
  Bamboo.Interp.precompile prog;
  { def; prog; an }

(** Set the programs up repeatedly (fresh compiles each time) — until
    a second has passed, at least 9 and at most 2000 times — and
    return every set-up's wall time with the last set-up's programs.
    One set-up takes about a millisecond per program, so a single one
    is all noise.  Each starts from a collected heap, so its time does
    not depend on the garbage the ones before it left.  In a traced run
    only the last set-up records spans. *)
let setup (c : ctx) defs =
  let min_reps = if c.quick then 1 else 9 and max_reps = if c.quick then 1 else 2000 in
  let t_start = Clock.now () in
  let rec go i times =
    let last = i + 1 >= max_reps || (i + 1 >= min_reps && Clock.elapsed t_start >= 1.0) in
    Trace.enabled := c.traced && last;
    Gc.full_major ();
    let t0 = Clock.now () in
    let ps =
      Trace.span ~req:(Printf.sprintf "setup/%d" i) "bench.setup" (fun () ->
          List.map (prepare ~req:(Printf.sprintf "setup/%d" i)) defs)
    in
    let times = Clock.elapsed t0 :: times in
    Trace.enabled := false;
    if last then (List.rev times, ps) else go (i + 1) times
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* The measured loop *)

(** Inputs per run: passes cycle through this many seeds derived from
    the workload seed, so a run averages over several inputs (one
    [synth_run] pass takes 7 to 12 s depending on the seed) while the
    first input repeats for the determinism witness. *)
let seeds_per_run (c : ctx) = if c.quick then 1 else 4

(** The input seed of pass [rep]. *)
let pass_seed (c : ctx) rep = (seeds_per_run c * c.seed) + (rep mod seeds_per_run c)

(** Run [pass ~rep] until [c.seconds] have elapsed.  Every seed gets a
    pass, and the first a second for the witness, however short
    [c.seconds] is.  In a traced run only the first pass is untraced,
    so one process yields the per-layer numbers and, on the first
    seed, the tracing overhead. *)
let passes (c : ctx) pass =
  let min_passes = seeds_per_run c + 1 in
  let t_start = Clock.now () in
  let rec go rep acc =
    if rep >= min_passes && Clock.elapsed t_start >= c.seconds then List.rev acc
    else begin
      let traced = c.traced && rep >= 1 in
      Trace.enabled := traced;
      let t0 = Clock.now () in
      let r =
        Trace.span ~req:(Printf.sprintf "pass/%d" rep) "bench.pass" (fun () -> pass ~rep)
      in
      let wall = Clock.elapsed t0 in
      Trace.enabled := false;
      go (rep + 1) ((traced, wall, r) :: acc)
    end
  in
  go 0 []

(** [value] of the untraced passes ([passes] lists them in pass
    order), weighing every seed the same however many passes it got:
    the mean over seeds of each seed's median. *)
let seed_mean (c : ctx) value results =
  let k = seeds_per_run c in
  let medians =
    List.filter_map
      (fun seed ->
        match
          List.concat
            (List.mapi
               (fun rep ((traced, _, _) as x) ->
                 if (not traced) && rep mod k = seed then [ value x ] else [])
               results)
        with
        | [] -> None
        | l -> Some (median l))
      (List.init k Fun.id)
  in
  sum medians /. float (List.length medians)

(** Seconds of one untraced pass, by {!seed_mean}. *)
let pass_seconds (c : ctx) results = seed_mean c (fun (_, w, _) -> w) results

(** Keep the first result of every seed and describe each later result
    that differs from it ([same] compares two results). *)
let witness (c : ctx) ~same ~what results =
  let first = Hashtbl.create 4 in
  List.concat
    (List.mapi
       (fun rep r ->
         let seed = pass_seed c rep in
         match Hashtbl.find_opt first seed with
         | None ->
             Hashtbl.add first seed r;
             []
         | Some r0 -> if same r r0 then [] else [ Printf.sprintf "%s differ between repetitions of seed %d" what seed ])
       results)

(** Interpreter speed outside the scheduler: cycles per second of the
    sequential version of each program on one core (traced runs only;
    the runs record spans). *)
let seq_cycles_per_s (runs : (Def.t * string list) list) =
  Trace.enabled := true;
  let cycles, secs =
    List.fold_left
      (fun (cy, s) ((d : Def.t), args) ->
        let prog = Bamboo.compile d.b_seq_source in
        Bamboo.Interp.precompile prog;
        let t0 = Clock.now () in
        let r =
          Trace.span ~req:(d.b_name ^ "/seq") "interp.run_single" (fun () ->
              Bamboo.Runtime.run_single ~args prog)
        in
        (cy + r.r_total_cycles, s +. Clock.elapsed t0))
      (0, 0.0) runs
  in
  Trace.enabled := false;
  float_of_int cycles /. secs
