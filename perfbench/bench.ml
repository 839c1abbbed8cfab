(* The repository benchmark.

     bench.exe --workload synth_run|exec_batch|serve_mix --seed N
               --seconds S --trace 0|1 [--nproc N] [--commit C]
     bench.exe --selftest PATH-TO-BAMBOO-CLI

   A run prints one line per metric, then a report line with every
   workload-specific metric and the host it ran on, then the result as
   one JSON line; the report (and a traced run's spans) also go to
   [out_dir].  It exits 1 when an output check or the determinism
   witness failed. *)

open Common

let workloads =
  [ ("synth_run", Synth_run.run); ("exec_batch", Exec_batch.run); ("serve_mix", Serve_mix.run) ]

(** The end-to-end metrics every workload reports (untraced runs).
    Latencies are in the report line only: a serve median moved by a
    third from run to run on a host losing CPU to its neighbours. *)
let end_to_end = [ ("setup_s", "s"); ("throughput_per_s", "1/s") ]

(** Layers named by their [lib/] directory; each one's spans wrap the
    public calls into it. *)
let layers = [ "frontend"; "analysis"; "check"; "interp"; "profile"; "synth"; "runtime"; "exec"; "serve" ]

let program_names = List.map (fun (d : Def.t) -> d.b_name) Bamboo_benchmarks.Registry.all

(** The per-layer metrics every workload reports (traced runs).  A
    layer's time is its share of the traced passes' wall time, so a
    layer the workload never calls reads 0 without a time that repeats
    exactly; its seconds go to the report line. *)
let per_layer =
  [
    ("frontend.compile_s", "s");
    ("analysis.analyse_s", "s");
    ("analysis.effects_s", "s");
    ("check.check_s", "s");
    ("interp.seq_cycles_per_s", "cycles/s");
    ("profile.share", "ratio");
    ("profile.cycles_per_s", "cycles/s");
    ("synth.share", "ratio");
    ("synth.evaluated", "count");
    ("synth.cache_hits", "count");
    ("synth.hit_ratio", "ratio");
    ("synth.pruned", "count");
    ("synth.prune_ratio", "ratio");
    ("synth.restarts", "count");
    ("synth.evals_per_s", "1/s");
    ("sim.events_per_s", "1/s");
  ]
  @ List.map (fun p -> ("sim.est_error_pct." ^ p, "%")) program_names
  @ [
      ("runtime.share", "ratio");
      ("runtime.cycles_per_s", "cycles/s");
      ("runtime.failed_locks", "count");
      ("runtime.messages", "count");
      ("exec.share", "ratio");
      ("exec.cycles_per_s", "cycles/s");
      ("exec.lock_retries", "count");
      ("exec.messages", "count");
      ("exec.idle_polls", "count");
      ("exec.steal_attempts", "count");
      ("exec.steals", "count");
      ("exec.steal_ratio", "ratio");
      ("exec.steal_aborts", "count");
      ("exec.stolen_invocations", "count");
      ("exec.body_share", "ratio");
      ("serve.share", "ratio");
      ("serve.sustained_rps", "1/s");
      ("serve.drop_frac", "ratio");
      ("serve.idle_polls", "count");
    ]
  @ List.concat_map (fun l -> [ (l ^ ".minor_mw", "Mwords"); (l ^ ".major_mw", "Mwords") ]) layers
  @ [ ("gc.major_collections", "count"); ("trace.overhead_pct", "%"); ("trace.spans", "count") ]

(** The metrics of [catalogue], in its order, taken from [ms]; a name
    [ms] lacks reads 0.  A metric outside the catalogue, or with another
    unit, is a bug in the benchmark. *)
let select catalogue ms =
  List.iter
    (fun m ->
      if List.assoc_opt m.name catalogue <> Some m.unit then
        failwith (Printf.sprintf "metric %s (%s) is not in the catalogue" m.name m.unit))
    ms;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun m -> m.name = name) ms with
      | Some m -> m
      | None -> metric name unit 0.0)
    catalogue

(** The span wrapping each layer's public call in a pass. *)
let pass_calls =
  [
    ("profile", "profile.profile");
    ("synth", "synth.synthesize");
    ("runtime", "runtime.execute");
    ("exec", "exec.execute_parallel");
    ("serve", "serve.serve");
  ]

(** Run one workload and assemble both metric sets. *)
let measure run (c : ctx) =
  let gc0 = Gc.quick_stat () in
  let o : outcome = run c in
  let gc1 = Gc.quick_stat () in
  let e2e = select end_to_end (metric "setup_s" "s" (median o.setups) :: o.e2e) in
  let report =
    metric "peak_heap_mb" "MB" (float gc1.top_heap_words *. float (Sys.word_size / 8) /. 1e6)
    :: o.report
  in
  if not c.traced then ({ o with report }, e2e, [])
  else begin
    let walls t = List.filter_map (fun (tr, w) -> if tr = t then Some w else None) o.walls in
    let npass = float (List.length (walls true)) in
    (* the median pass of the first seed, the one seed both kinds of
       pass cover *)
    let first_seed t =
      median
        (List.concat
           (List.mapi
              (fun rep (tr, w) -> if tr = t && rep mod seeds_per_run c = 0 then [ w ] else [])
              o.walls))
    in
    let self = Trace.self_seconds in
    let set_up_layer l = List.mem l [ "frontend"; "analysis"; "check"; "interp" ] in
    let layer =
      [
        metric "frontend.compile_s" "s" (self "frontend.compile");
        metric "analysis.analyse_s" "s" (self "analysis.analyse");
        metric "analysis.effects_s" "s" (self "analysis.effects");
        metric "check.check_s" "s" (self "check.check");
        metric "gc.major_collections" "count"
          (float (gc1.major_collections - gc0.major_collections));
        metric "trace.overhead_pct" "%"
          (100.0 *. ((first_seed true /. first_seed false) -. 1.0));
        metric "trace.spans" "count" (float (List.length (Trace.spans ())));
      ]
      @ List.map
          (fun (l, call) -> metric (l ^ ".share") "ratio" (self call /. sum (walls true)))
          pass_calls
      @ List.concat_map
          (fun l ->
            let mi, ma = Trace.layer_words l in
            let per = if set_up_layer l then 1e6 else npass *. 1e6 in
            [ metric (l ^ ".minor_mw") "Mwords" (mi /. per); metric (l ^ ".major_mw") "Mwords" (ma /. per) ])
          layers
    in
    let seconds =
      [
        metric "profile.s" "s" (self "profile.profile" /. npass);
        metric "synth.dsa_s" "s" (self "synth.synthesize" /. npass);
        metric "runtime.run_s" "s" (self "runtime.execute" /. npass);
      ]
    in
    ({ o with report = report @ seconds }, e2e, select per_layer (layer @ o.layers))
  end

(* ------------------------------------------------------------------ *)
(* Output *)

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "a metric is not a finite number"

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_float m.value) m.unit) ms)
  ^ "}"

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(** Where reports and spans are written, relative to the directory
    the benchmark runs in. *)
let out_dir = ".perfbench"

let main ~workload ~seed ~seconds ~traced ~nproc ~commit =
  let run =
    match List.assoc_opt workload workloads with
    | Some f -> f
    | None ->
        Printf.eprintf "unknown workload %S (expected %s)\n" workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  let c = { seed; seconds; traced; quick = false } in
  let o, e2e, layer = measure run c in
  let shown = if traced then layer else e2e in
  List.iter (fun m -> Printf.printf "metric %-36s %16.6g %s\n" m.name m.value m.unit) (shown @ o.report);
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) o.fatal;
  let host =
    Printf.sprintf
      "{\"nproc\": %d, \"recommended_domain_count\": %d, \"ocaml\": %S, \"commit\": %S}" nproc
      (Domain.recommended_domain_count ()) Sys.ocaml_version commit
  in
  let report =
    Printf.sprintf
      "{\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %d, \"host\": %s, \
       \"failed_frac\": %s, \"setups\": %d, \"passes\": [%s], \"metrics\": %s}"
      workload seed (json_float seconds) (Bool.to_int traced) host
      (json_float (float o.failed /. float (max 1 o.attempted)))
      (List.length o.setups)
      (String.concat ", "
         (List.map (fun (t, w) -> Printf.sprintf "{\"traced\": %b, \"wall_s\": %s}" t (json_float w)) o.walls))
      (json_metrics (e2e @ o.report @ layer))
  in
  Printf.printf "report %s\n" report;
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let base = Printf.sprintf "%s/%s-seed%d-trace%d" out_dir workload seed (Bool.to_int traced) in
  write_file (base ^ ".report.json") (report ^ "\n");
  if traced then Trace.write (base ^ ".spans.jsonl");
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!"
    (o.fatal = []) o.attempted o.failed (json_metrics shown);
  if o.fatal <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Self-test: quick mode of every workload, and the CLI's defaults *)

let check_cli_defaults cli =
  let def = Bamboo_benchmarks.Registry.keyword_counter in
  let ic = Unix.open_process_args_in cli (Array.of_list ([ cli; "synth"; "bench:KeywordCount" ] @ def.b_args)) in
  let line = input_line ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "bamboo synth failed");
  let cli_o =
    Scanf.sscanf line
      "estimated %d cycles; %d layouts evaluated (+%d cache hits, %d pruned) over %d start(s) (%d restarts)"
      (fun c e h p s r -> (c, e, h, p, s, r))
  in
  let prog = Bamboo.compile def.b_source in
  let an = Bamboo.analyse prog in
  let prof = Bamboo.profile ~args:def.b_args prog in
  let o =
    Bamboo.synthesize ~jobs:Synth_run.jobs ~starts:Synth_run.starts ~seed:42 prog an prof
      Synth_run.machine
  in
  if cli_o <> (o.best_cycles, o.evaluated, o.cache_hits, o.pruned, o.starts, o.restarts) then
    failwith "synth_run's synthesis settings differ from `bamboo synth`'s defaults"

let selftest cli =
  check_cli_defaults cli;
  List.iter
    (fun (name, run) ->
      Trace.recorded := [];
      let o, e2e, layer = measure run { seed = 7; seconds = 0.0; traced = true; quick = true } in
      let fail msg = failwith (Printf.sprintf "%s: %s" name msg) in
      if o.fatal <> [] then fail (String.concat "; " o.fatal);
      if o.attempted < 1 || o.failed <> 0 then fail "no operation checked, or one failed";
      List.iter
        (fun m ->
          if not (Float.is_finite m.value && m.value > 0.0) then
            fail (m.name ^ " is not a positive number"))
        e2e;
      List.iter (fun m -> ignore (json_float m.value : string)) (layer @ o.report);
      if List.map (fun m -> (m.name, m.unit)) e2e <> end_to_end then fail "end-to-end metrics";
      if List.map (fun m -> (m.name, m.unit)) layer <> per_layer then fail "per-layer metrics";
      Printf.printf "selftest %s: ok (%d checked)\n%!" name o.attempted)
    workloads

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let nproc = ref 0 and commit = ref "unknown" in
  let selftest_cli = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME synth_run, exec_batch or serve_mix");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 untraced (end-to-end) or traced (per-layer) run");
      ("--nproc", Arg.Set_int nproc, "N cores of the host, for the record");
      ("--commit", Arg.Set_string commit, "C the source revision, for the record");
      ("--selftest", Arg.Set_string selftest_cli, "CLI run every workload in quick mode");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !selftest_cli <> "" then selftest !selftest_cli
  else begin
    if !seconds < 0.0 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline "--seconds must be non-negative and --trace 0 or 1";
      exit 2
    end;
    main ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) ~nproc:!nproc
      ~commit:!commit
  end
