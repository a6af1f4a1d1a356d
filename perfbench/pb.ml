(* In-process half of the rta benchmark (driven by perfbench/run.py).

   pb gen WORKLOAD SEED DIR [COUNTS...]
       Write the workload's seeded inputs as NDJSON request files, one file
       per request class (see [classes] below).  Same seed, same bytes.
   pb oracle FILE...
       For every request line, the in-process [Analysis.run] answer, as the
       analysis fields of an "ok" response, one JSON object per line keyed
       by the request id.
   pb sim FILE...
       For every request line, what any sound bound must respect: per job,
       the worst response the simulator observes over the request's
       horizons, and whether the job releases forever and crosses an FCFS
       processor whose long-run utilization exceeds 1 (then no finite bound
       is sound).
   pb replay JOBS STORE_DIR REQUESTS OUT   (STORE_DIR "-": no store)
       The traced per-layer replay: the request lines of REQUESTS (in send
       order) go through the public functions of every layer, in the
       [Batch.prepare] / [Batch.execute] order, once untraced and once
       traced.  Writes the per-layer aggregates to OUT (one JSON object) and
       the traced spans to OUT.spans.jsonl.
   pb calib
       A fixed kernel independent of the repository's code, timed by the
       benchmark to track the machine's current speed.

   Inputs come from [Rta_workload.Jobshop] and the small builders below;
   the program under test only ever sees the NDJSON. *)

open Rta_model
module Rng = Rta_workload.Rng
module Jobshop = Rta_workload.Jobshop
module Json = Rta_obs.Json
module Batch = Rta_service.Batch
module Analysis = Rta_core.Analysis

(* ------------------------------------------------------------------ *)
(* Input generation                                                    *)
(* ------------------------------------------------------------------ *)

let scheds = [| Sched.Spp; Sched.Spnp; Sched.Fcfs |]

(* Shares are fixed by position, never drawn: the k-th system of a class
   takes its scheduler, arrival kind, stage count and job count from k, so
   every 72 consecutive systems cover each combination once and two seeds
   differ only in the drawn periods, weights and utilizations. *)
let sched_of k = scheds.(k mod 3)

let arrival_of k =
  if k / 3 mod 2 = 0 then Jobshop.Periodic_eq25 else Jobshop.Bursty_eq27

let pick (lo, hi) k = lo + (k mod (hi - lo + 1))

let shop ?x_min rng ~k ~stages ~jobs ~util:(u_lo, u_hi) =
  let stages = pick stages (k / 6) in
  let jobs = pick jobs (k / 18) in
  let utilization = Rng.uniform rng u_lo u_hi in
  let deadline = Jobshop.Multiple_of_period (Rng.uniform rng 1.5 4.0) in
  let config =
    Jobshop.default ~stages ~jobs ~utilization ~arrival:(arrival_of k) ~deadline
      ~sched:(sched_of k)
  in
  let config =
    match x_min with Some x_min -> { config with Jobshop.x_min } | None -> config
  in
  Jobshop.generate config ~rng

(* A "logical loop" (examples/cyclic_loop.ml generalized to a ring): job i
   runs on processor i at low priority, then on processor i+1 at high
   priority, so every first stage waits on its ring predecessor's second
   stage and the dependency graph is one cycle.  [Engine] refuses it and
   [Fixpoint] answers. *)
let loop_system rng ~k =
  let n = pick (2, 4) k in
  let util = Rng.uniform rng 0.3 0.7 in
  let period = Array.init n (fun _ -> Time.of_units (1.0 /. Rng.uniform rng 0.1 1.0)) in
  (* Processor p hosts job p's first step and job p-1's second step. *)
  let w = Array.init n (fun _ -> Array.init 2 (fun _ -> Rng.uniform rng 0.2 1.0)) in
  let exec job step =
    let p = (job + step) mod n in
    let other_job, other_step = if step = 0 then ((p + n - 1) mod n, 1) else (p, 0) in
    let share = w.(job).(step) /. (w.(job).(step) +. w.(other_job).(other_step)) in
    max 1 (int_of_float (util *. share *. float period.(job)))
  in
  let jobs =
    Array.init n (fun j ->
        {
          System.name = Printf.sprintf "L%d" (j + 1);
          arrival =
            (match arrival_of (k / 3) with
            | Jobshop.Periodic_eq25 -> Arrival.Periodic { period = period.(j); offset = 0 }
            | Jobshop.Bursty_eq27 -> Arrival.Bursty { period = period.(j) });
          deadline = 3 * period.(j);
          steps =
            [|
              { System.proc = j; exec = exec j 0; prio = 2 };
              { System.proc = (j + 1) mod n; exec = exec j 1; prio = 1 };
            |];
        })
  in
  let system = System.make_exn ~schedulers:(Array.init n (fun p -> sched_of ((k / 3) + p))) ~jobs in
  (match Rta_core.Deps.compute system with
  | Rta_core.Deps.Cyclic _ -> ()
  | Rta_core.Deps.Acyclic _ -> failwith "loop_system: ring is not cyclic");
  system

(* The seed-299 class of the ROADMAP: four jobs on one FCFS processor whose
   long-run utilization exceeds 1.  The exact engine over a long horizon
   outlives a short deadline; the envelope fallback then has to discover the
   overload, and its busy-window search runs past the deadline.  That search
   costs about (U / (U - 1)) * 2^22 / period steps: with periods of 500-600
   ticks a degraded answer to a 50 ms deadline takes about 120 ms on a
   2-vCPU VM, so a fixed count fits in every run (Rta_check.Gen seed 299, at
   U = 1.08 with periods of 11-39 ticks, takes about 28 s).  Job 1 releases a
   burst of two, then one per period, so every job's long-run rate is one per
   period and the utilization is [overload_util] up to the rounding of the
   execution times. *)
let overload_util = 1.15
let overload_release_horizon = 2_000_000

(* Long-run utilization of each processor, from the jobs' release rates
   (jobs without a long-run rate count as 0). *)
let utilization system =
  let u = Array.make (System.processor_count system) 0. in
  for j = 0 to System.job_count system - 1 do
    let job = System.job system j in
    match Arrival.rate_per_tick_denominator job.System.arrival with
    | None -> ()
    | Some period ->
        Array.iter (fun st -> u.(st.System.proc) <- u.(st.System.proc) +. (float st.System.exec /. float period)) job.System.steps
  done;
  u

let overloaded rng =
  let n = 4 in
  let period = Array.init n (fun _ -> Rng.int_range rng 500 600) in
  let w = Array.init n (fun _ -> Rng.uniform rng 0.5 1.0) in
  let wsum = Array.fold_left ( +. ) 0. w in
  let jobs =
    Array.init n (fun k ->
        let p = period.(k) in
        let exec = max 1 (int_of_float (Float.round (overload_util *. w.(k) /. wsum *. float p))) in
        let offset = Rng.int_range rng 0 (p / 4) in
        {
          System.name = Printf.sprintf "J%d" (k + 1);
          arrival =
            (if k = 0 then Arrival.Burst_periodic { burst = 2; period = p; offset }
             else Arrival.Periodic { period = p; offset });
          deadline = 4 * p;
          steps = [| { System.proc = 0; exec; prio = k + 1 } |];
        })
  in
  let system = System.make_exn ~schedulers:[| Sched.Fcfs |] ~jobs in
  if (utilization system).(0) < 1.1 then failwith "overloaded: utilization below 1.1";
  system

(* The ci/serve_smoke.py slow shape: a 4-stage, 8-job FCFS shop analyzed
   over a horizon long enough that the engine runs for seconds. *)
let heavy_release_horizon = 4_000_000

let heavy rng =
  Jobshop.generate
    (Jobshop.default ~stages:4 ~jobs:8 ~utilization:(Rng.uniform rng 0.4 0.6)
       ~arrival:Jobshop.Periodic_eq25 ~deadline:(Jobshop.Multiple_of_period 2.0)
       ~sched:Sched.Fcfs)
    ~rng

type cls = {
  prefix : string;  (** request ids are prefix ^ index *)
  make : Rng.t -> int -> System.t;
  horizons : (int * int) option;  (** explicit (release_horizon, horizon) *)
}

let sweep =
  {
    prefix = "s";
    make =
      (fun rng i ->
        if i mod 5 = 4 then loop_system rng ~k:(i / 5)
        else
          let k = i - (i / 5) in
          shop rng ~k ~stages:(2, 4) ~jobs:(3, 6) ~util:(0.3, 0.7));
    horizons = None;
  }

(* The cheap requests of serve-deadline are small shapes with periods within
   a factor of two, so every one costs about the same engine time. *)
let cheap =
  {
    prefix = "c";
    make = (fun rng k -> shop ~x_min:0.5 rng ~k ~stages:(2, 3) ~jobs:(3, 5) ~util:(0.3, 0.6));
    horizons = Some (100_000, 200_000);
  }

let heavy_cls =
  { prefix = "x"; make = (fun rng _ -> heavy rng); horizons = Some (heavy_release_horizon, 2 * heavy_release_horizon) }

let overload_cls =
  {
    prefix = "o";
    make = (fun rng _ -> overloaded rng);
    horizons = Some (overload_release_horizon, 2 * overload_release_horizon);
  }

let classes = function
  | "batch-sweep" -> [ sweep ]
  | "serve-deadline" -> [ cheap; heavy_cls; overload_cls ]
  | w -> failwith ("unknown workload " ^ w)

(* Every class draws from its own stream split off the seed, so changing
   one class's count never changes another's systems.  Duplicate specs are
   redrawn: every request of a class is a distinct system. *)
let gen workload seed dir counts =
  let root = Rng.make seed in
  List.iter2
    (fun cls count ->
      let rng = Rng.split root in
      let seen = Hashtbl.create 64 in
      let oc = open_out (Filename.concat dir (cls.prefix ^ ".ndjson")) in
      for i = 0 to count - 1 do
        let rec fresh () =
          let spec = Parser.print (cls.make rng i) in
          if Hashtbl.mem seen spec then fresh ()
          else begin
            Hashtbl.add seen spec ();
            spec
          end
        in
        let spec = fresh () in
        let horizon_fields =
          match cls.horizons with
          | None -> []
          | Some (rh, h) -> [ ("release_horizon", Json.Int rh); ("horizon", Json.Int h) ]
        in
        output_string oc
          (Json.to_string
             (Json.Obj
                ((("id", Json.String (Printf.sprintf "%s%d" cls.prefix i)) :: ("spec", Json.String spec) :: horizon_fields))));
        output_char oc '\n'
      done;
      close_out oc)
    (classes workload) counts

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)
(* ------------------------------------------------------------------ *)

let field name = function Json.Obj f -> List.assoc_opt name f | _ -> None

let int_field name j = match field name j with Some (Json.Int i) -> Some i | _ -> None

(* [f id system config] for every request line of [files]. *)
let each_request files f =
  List.iter
    (fun file ->
      In_channel.with_open_text file @@ fun ic ->
      let rec loop () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
            let j = Result.get_ok (Json.of_string line) in
            let spec = match field "spec" j with Some (Json.String s) -> s | _ -> assert false in
            let system = Result.get_ok (Parser.parse spec) in
            let config =
              Analysis.config ?release_horizon:(int_field "release_horizon" j) ?horizon:(int_field "horizon" j) ()
            in
            f (Option.get (field "id" j)) system config;
            loop ()
      in
      loop ())
    files

let oracle files =
  each_request files @@ fun id system config ->
  let r = Analysis.run ~config system in
  let per_job =
    Array.to_list
      (Array.mapi
         (fun k v ->
           Json.Obj
             [
               ("name", Json.String (System.job system k).System.name);
               ("bound_ticks", match v with Analysis.Bounded b -> Json.Int b | Analysis.Unbounded -> Json.Null);
             ])
         r.Analysis.per_job)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("id", id);
            ( "method",
              Json.String
                (match r.Analysis.method_used with
                | `Exact -> "exact"
                | `Approximate -> "approximate"
                | `Fixpoint -> "fixpoint") );
            ("schedulable", Json.Bool r.Analysis.schedulable);
            ("release_horizon", Json.Int r.Analysis.release_horizon);
            ("horizon", Json.Int r.Analysis.horizon);
            ("per_job", Json.List per_job);
          ]))

(* Lower bounds on every job's worst-case response: the simulator's worst
   observed response, where an instance still unfinished at the horizon has
   been in the system for at least (horizon - release). *)
let sim files =
  each_request files @@ fun id system config ->
  let release_horizon, horizon = Analysis.resolve_horizons config system in
  let r = Rta_sim.Sim.run ~release_horizon system ~horizon in
  let u = utilization system in
  let per_job =
    List.init (System.job_count system) (fun k ->
        let job = System.job system k in
        let at_least =
          Array.fold_left
            (fun acc (i : Rta_sim.Sim.instance_record) ->
              max acc (match i.completed with Some c -> c - i.released | None -> horizon - i.released))
            0 r.Rta_sim.Sim.per_job.(k)
        in
        let unbounded =
          Arrival.rate_per_tick_denominator job.System.arrival <> None
          && Array.exists
            (fun st -> System.scheduler_of system st.System.proc = Sched.Fcfs && u.(st.System.proc) > 1.)
            job.System.steps
        in
        Json.Obj
          [
            ("name", Json.String job.System.name);
            ("at_least", Json.Int at_least);
            ("unbounded", Json.Bool unbounded);
          ])
  in
  print_endline (Json.to_string (Json.Obj [ ("id", id); ("per_job", Json.List per_job) ]))

(* ------------------------------------------------------------------ *)
(* Traced replay                                                       *)
(* ------------------------------------------------------------------ *)

(* In-memory spans.  [enter]/[leave] bracket one public call; a span's
   self time and self words are its totals minus those of its children. *)
type frame = {
  f_name : string;
  f_t0 : float;
  f_w0 : float;
  mutable child_s : float;
  mutable child_w : float;
}

type layer = { mutable self_s : float; mutable self_w : float; mutable calls : int; mutable samples : float list }

let tracing = ref false
let stack : frame list ref = ref []
let layers : (string, layer) Hashtbl.t = Hashtbl.create 32
let span_log : (string * float * float * int) list ref = ref []

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
      let l = { self_s = 0.; self_w = 0.; calls = 0; samples = [] } in
      Hashtbl.add layers name l;
      l

let enter name =
  stack := { f_name = name; f_t0 = Rta_obs.now (); f_w0 = Gc.minor_words (); child_s = 0.; child_w = 0. } :: !stack

let leave ?(rename = "") () =
  let t1 = Rta_obs.now () and w1 = Gc.minor_words () in
  match !stack with
  | [] -> assert false
  | f :: rest ->
      stack := rest;
      let dur = t1 -. f.f_t0 and words = w1 -. f.f_w0 in
      let name = if rename = "" then f.f_name else rename in
      let l = layer name in
      l.self_s <- l.self_s +. (dur -. f.child_s);
      l.self_w <- l.self_w +. (words -. f.child_w);
      l.calls <- l.calls + 1;
      l.samples <- dur :: l.samples;
      span_log := (name, f.f_t0, dur, List.length rest) :: !span_log;
      (match rest with
      | parent :: _ ->
          parent.child_s <- parent.child_s +. dur;
          parent.child_w <- parent.child_w +. words
      | [] -> ())

let span name f =
  if not !tracing then f ()
  else begin
    enter name;
    match f () with
    | r ->
        leave ();
        r
    | exception e ->
        leave ();
        raise e
  end

let method_tag = function `Exact -> "exact" | `Approximate -> "approximate" | `Fixpoint -> "fixpoint"

(* [Batch.execute]'s [analyze_ready], through the public [Analysis.run]. *)
let analyze ~cancel ~system ~config =
  let run () =
    let r = Analysis.run ~cancel ~config system in
    {
      Batch.method_used = r.Analysis.method_used;
      schedulable = r.Analysis.schedulable;
      verdicts =
        Array.mapi
          (fun j v ->
            {
              Batch.job_name = (System.job system j).System.name;
              bound = (match v with Analysis.Bounded b -> Some b | Analysis.Unbounded -> None);
            })
          r.Analysis.per_job;
      release_horizon = r.Analysis.release_horizon;
      horizon = r.Analysis.horizon;
    }
  in
  if not !tracing then run ()
  else begin
    enter "analysis";
    match run () with
    | a ->
        leave ~rename:("analysis." ^ method_tag a.Batch.method_used) ();
        a
    | exception e ->
        leave ~rename:"analysis.cancelled" ();
        raise e
  end

(* [Batch.degrade], through the public [Envelope_analysis.system_bounds]. *)
let degrade system =
  span "envelope.system_bounds" @@ fun () ->
  match Rta_core.Envelope_analysis.system_bounds system with
  | None -> Batch.Timed_out
  | Some r ->
      let bound = function Rta_core.Envelope_analysis.Bounded b -> Some b | Rta_core.Envelope_analysis.Unbounded -> None in
      let d_verdicts =
        Array.mapi
          (fun j v -> { Batch.job_name = (System.job system j).System.name; bound = bound v })
          r.Rta_core.Envelope_analysis.end_to_end
      in
      let d_schedulable =
        Array.for_all Fun.id
          (Array.mapi
             (fun j v ->
               match bound v with Some b -> b <= (System.job system j).System.deadline | None -> false)
             r.Rta_core.Envelope_analysis.end_to_end)
      in
      Batch.Degraded { d_verdicts; d_schedulable }

type counts = { mutable cache_hits : int; mutable cache_misses : int; mutable store_hits : int; mutable store_misses : int }

let counts = { cache_hits = 0; cache_misses = 0; store_hits = 0; store_misses = 0 }

(* One request, layer by layer: decode, then [Batch.prepare] (parse, key),
   then [Batch.execute] (deadline, cache, store, engine or envelope), then
   encode. *)
let handle ~cache ?store index line =
  span "request" @@ fun () ->
  let admitted = Rta_obs.now () in
  let parsed = span "batch.decode" (fun () -> Batch.request_of_line line) in
  let id = match parsed with Ok r -> r.Batch.id | Error _ -> None in
  let status =
    match parsed with
    | Error e -> Batch.Invalid e
    | Ok req -> (
        match span "parser.parse" (fun () -> Parser.parse req.Batch.spec) with
        | Error e -> Batch.Invalid e
        | Ok system -> (
            let config = req.Batch.config in
            let key = span "key" (fun () -> Rta_service.Key.to_hex (Rta_service.Key.of_system ~config system)) in
            let deadline = Option.map (fun d -> admitted +. d) config.Analysis.deadline_s in
            if match deadline with Some d -> Rta_obs.now () > d | None -> false then Batch.Timed_out
            else
              let cancel =
                match deadline with Some d -> Rta_core.Cancel.of_deadline d | None -> Rta_core.Cancel.never
              in
              let fresh () =
                let a = analyze ~cancel ~system ~config in
                Option.iter
                  (fun st ->
                    span "store.put" (fun () ->
                        Rta_service.Store.put st ~key (Json.to_string (Batch.analysis_to_json a))))
                  store;
                a
              in
              let compute () =
                match store with
                | None -> fresh ()
                | Some st -> (
                    match span "store.find" (fun () -> Rta_service.Store.find st ~key) with
                    | None ->
                        counts.store_misses <- counts.store_misses + 1;
                        fresh ()
                    | Some payload -> (
                        counts.store_hits <- counts.store_hits + 1;
                        match span "store.find" (fun () -> Batch.analysis_of_string payload) with
                        | Ok a -> a
                        | Error _ ->
                            Rta_service.Store.remove st ~key;
                            fresh ()))
              in
              match span "cache.lookup" (fun () -> Rta_service.Cache.find_or_compute cache ~key compute) with
              | `Hit a ->
                  counts.cache_hits <- counts.cache_hits + 1;
                  Batch.Analyzed a
              | `Miss a ->
                  counts.cache_misses <- counts.cache_misses + 1;
                  Batch.Analyzed a
              | exception Rta_core.Cancel.Cancelled -> degrade system
              | exception e -> Batch.Failed (Printexc.to_string e)))
  in
  span "batch.encode" (fun () -> Batch.response_line { Batch.index; id; cache = `Miss; status })

let open_store dir =
  Rta_service.Store.open_ ~validate:(fun s -> Result.is_ok (Batch.analysis_of_string s)) dir

let copy_dir src dst =
  Sys.mkdir dst 0o755;
  if Sys.file_exists src then
    Array.iter
      (fun f ->
        let data = In_channel.with_open_bin (Filename.concat src f) In_channel.input_all in
        Out_channel.with_open_bin (Filename.concat dst f) (fun oc -> output_string oc data))
      (Sys.readdir src)

let gc_delta f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  ( r,
    ( s1.Gc.minor_collections - s0.Gc.minor_collections,
      s1.Gc.major_collections - s0.Gc.major_collections,
      s1.Gc.promoted_words -. s0.Gc.promoted_words ) )

(* One sequential pass over [lines]: per-request in-process seconds and the
   pass's wall time. *)
let passes = ref 0

let pass ~store_src ~work lines =
  incr passes;
  let store =
    match store_src with
    | "-" -> None
    | src ->
        let dir = Filename.concat work (Printf.sprintf "store-%d" !passes) in
        copy_dir src dir;
        Some dir
  in
  let t_open = Rta_obs.now () in
  let store = Option.map open_store store in
  let open_s = Rta_obs.now () -. t_open in
  let cache = Rta_service.Cache.create () in
  let t0 = Rta_obs.now () in
  let per_req =
    Array.mapi
      (fun i line ->
        let s = Rta_obs.now () in
        ignore (handle ~cache ?store i line);
        Rta_obs.now () -. s)
      lines
  in
  (per_req, Rta_obs.now () -. t0, open_s)

(* The parallel leg: the same requests through [Batch.prepare]/[execute] on
   [Backend.run], each closure timed, for the pool's busy share. *)
let backend_pass ~jobs ~work ~store_src lines =
  let store =
    if store_src = "-" then None else Some (open_store (Filename.concat work "store-backend"))
  in
  let cache = Rta_service.Cache.create () in
  let busy = Array.make (Array.length lines) 0. in
  let tasks =
    Array.mapi
      (fun i line () ->
        let s = Rta_obs.now () in
        let p = Batch.prepare (Batch.request_of_line line) in
        ignore (Batch.execute ~cache ?store ~admitted:s p);
        busy.(i) <- Rta_obs.now () -. s)
      lines
  in
  let t0 = Rta_obs.now () in
  Rta_service.Backend.run ~jobs tasks;
  let wall = Rta_obs.now () -. t0 in
  Array.fold_left ( +. ) 0. busy /. (float jobs *. wall)

let quantile q = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      a.(min (Array.length a - 1) (int_of_float (q *. float (Array.length a))))

let replay jobs store_src requests out =
  let lines = In_channel.with_open_text requests In_channel.input_all |> String.split_on_char '\n' |> List.filter (( <> ) "") |> Array.of_list in
  let n = Array.length lines in
  let work = Filename.concat (Filename.dirname out) "replay-work" in
  if not (Sys.file_exists work) then Sys.mkdir work 0o755;
  (* A warm-up pass over a prefix, then untraced: the reference wall time
     and per-request service times (what the daemon spends on a request
     once a worker has it), then traced. *)
  ignore (pass ~store_src ~work (Array.sub lines 0 (min n 200)));
  let (plain, plain_wall, _), (minor_c, major_c, promoted) = gc_delta (fun () -> pass ~store_src ~work lines) in
  Hashtbl.reset layers;
  counts.cache_hits <- 0;
  counts.cache_misses <- 0;
  counts.store_hits <- 0;
  counts.store_misses <- 0;
  Rta_obs.reset ();
  Rta_obs.set_enabled true;
  tracing := true;
  let _, traced_wall, open_s = pass ~store_src ~work lines in
  tracing := false;
  Rta_obs.set_enabled false;
  let backend_eff = if jobs > 1 then backend_pass ~jobs ~work ~store_src lines else 1. in
  (* Engine and fixpoint time inside each Analysis.run, from the library's
     own spans (enabled in the traced pass only). *)
  let obs_spans = Rta_obs.spans () in
  let engine_s = ref 0. and fixpoint_s = ref 0. and analysis_s = ref 0. in
  Array.iter
    (fun s ->
      match s.Rta_obs.si_name with
      | "analysis.run" -> analysis_s := !analysis_s +. s.Rta_obs.si_duration
      | "engine.run" -> engine_s := !engine_s +. s.Rta_obs.si_duration
      | "fixpoint.analyze" -> fixpoint_s := !fixpoint_s +. s.Rta_obs.si_duration
      | _ -> ())
    obs_spans;
  let metrics = Rta_obs.metrics_json () in
  let counter name = match field "counters" metrics |> Option.map (field name) with Some (Some (Json.Int i)) -> i | _ -> 0 in
  let hist name stat =
    match Option.bind (field "histograms" metrics) (field name) |> Option.map (field stat) with
    | Some (Some (Json.Float f)) -> f
    | Some (Some (Json.Int i)) -> float i
    | _ -> 0.
  in
  let prefix_min_s = hist "minplus.prefix_min.seconds" "mean" *. hist "minplus.prefix_min.seconds" "count" in
  let layer_json =
    Hashtbl.fold
      (fun name l acc ->
        ( name,
          Json.Obj
            [
              ("calls", Json.Int l.calls);
              ("self_s", Json.Float l.self_s);
              ("self_words", Json.Float l.self_w);
              ("p50_s", Json.Float (quantile 0.5 l.samples));
              ("max_s", Json.Float (List.fold_left max 0. l.samples));
            ] )
        :: acc)
      layers []
    |> List.sort compare
  in
  let fn = float n in
  let ratio a b = if b > 0 then float a /. float (a + b) else 0. in
  let result =
    Json.Obj
      [
        ("requests", Json.Int n);
        ("layers", Json.Obj layer_json);
        ("untraced_wall_s", Json.Float plain_wall);
        ("traced_wall_s", Json.Float traced_wall);
        ("service_s", Json.List (Array.to_list (Array.map (fun s -> Json.Float s) plain)));
        ("store_open_s", Json.Float open_s);
        ("cache_hit_ratio", Json.Float (ratio counts.cache_hits counts.cache_misses));
        ("store_hit_ratio", Json.Float (ratio counts.store_hits counts.store_misses));
        ("engine_s", Json.Float !engine_s);
        ("fixpoint_s", Json.Float !fixpoint_s);
        ("analysis_run_s", Json.Float !analysis_s);
        ("fixpoint_iterations", Json.Float (hist "fixpoint.iterations" "mean"));
        ("prefix_min_calls", Json.Int (counter "minplus.prefix_min.calls"));
        ("prefix_min_s", Json.Float prefix_min_s);
        ( "pl_calls",
          Json.Int (counter "pl.add.calls" + counter "pl.sub.calls" + counter "pl.min2.calls" + counter "pl.max2.calls")
        );
        ("fixpoint_recomputes", Json.Int (counter "fixpoint.recomputes"));
        ("backend_efficiency", Json.Float backend_eff);
        ("gc_minor_collections", Json.Float (float minor_c /. fn));
        ("gc_major_collections", Json.Float (float major_c /. fn));
        ("gc_promoted_words", Json.Float (promoted /. fn));
      ]
  in
  Out_channel.with_open_text out (fun oc -> output_string oc (Json.to_string result));
  Out_channel.with_open_text (out ^ ".spans.jsonl") (fun oc ->
      List.iter
        (fun (name, t0, dur, depth) ->
          Printf.fprintf oc "{\"name\":%S,\"start_s\":%.6f,\"dur_s\":%.9f,\"depth\":%d}\n" name t0 dur depth)
        (List.rev !span_log))

(* A fixed allocation-heavy kernel that touches no code of the repository:
   its wall time tracks how fast the shared machine runs right now, so the
   benchmark can put timings taken at different moments on one scale. *)
let calib () =
  let acc = ref 0 in
  for r = 1 to 200 do
    let l = List.init 2000 (fun i -> ((i * 7919) + r) mod 10007) in
    let l = List.sort compare (List.map (fun x -> (x * 3) + 1) l) in
    let h = Hashtbl.create 64 in
    List.iter (fun x -> Hashtbl.replace h (x mod 997) x) l;
    acc := !acc + Hashtbl.length h + List.hd l
  done;
  if !acc = 0 then print_endline "unreachable"

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "calib" ] -> calib ()
  | "gen" :: workload :: seed :: dir :: counts ->
      gen workload (int_of_string seed) dir (List.map int_of_string counts)
  | "oracle" :: files -> oracle files
  | "sim" :: files -> sim files
  | [ "replay"; jobs; store_src; requests; out ] -> replay (int_of_string jobs) store_src requests out
  | _ ->
      prerr_endline "usage: pb gen WORKLOAD SEED DIR COUNT... | pb oracle FILE... | pb sim FILE... | pb replay JOBS STORE REQUESTS OUT | pb calib";
      exit 2
