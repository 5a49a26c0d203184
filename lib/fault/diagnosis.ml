module Parallel = Tvs_sim.Parallel
module Lanes = Tvs_sim.Lanes

type response = bool array list

(* Up to 62 faults share a pass of [Parallel.run]: fault [k] of the pass in
   lane [k + 1], beside the fault-free machine in lane 0. The first pass
   also gives the fault-free response, so there is one even with no
   faults. *)
let responses sim ~tests faults =
  let widen arr = Array.map (fun b -> if b then Lanes.all_mask else 0) arr in
  let tests = Array.to_list tests in
  let n = Array.length faults and width = Lanes.width - 1 in
  let good = ref [] and out = Array.make n [] in
  for pass = 0 to (n - 1) / width do
    let pos = pass * width in
    let len = min width (n - pos) in
    let injections = List.init len (fun k -> Fault.to_injection faults.(pos + k) ~lane:(k + 1)) in
    (* Per test, the PO words and then the captured cells' words. *)
    let words =
      List.map
        (fun (pi, scan) ->
          let r = Parallel.run sim ~pi:(widen pi) ~state:(widen scan) ~injections in
          Array.append r.Parallel.po r.Parallel.capture)
        tests
    in
    let frames lane = List.map (Array.map (fun w -> Lanes.get w lane)) words in
    if pass = 0 then good := frames 0;
    for k = 0 to len - 1 do
      out.(pos + k) <- frames (k + 1)
    done
  done;
  (!good, out)

let respond sim ~tests ?fault () =
  match fault with
  | None -> fst (responses sim ~tests [||])
  | Some f -> (snd (responses sim ~tests [| f |])).(0)

let key_of response =
  let buf = Buffer.create 256 in
  List.iter
    (fun frame -> Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) frame)
    response;
  Buffer.contents buf

type dictionary = {
  good_key : string;
  classes : (string, Fault.t list) Hashtbl.t;  (* faulty behaviours only *)
  detected : int;
}

let build sim ~faults ~tests =
  let good, each = responses sim ~tests faults in
  let good_key = key_of good in
  let classes = Hashtbl.create 64 in
  let detected = ref 0 in
  Array.iteri
    (fun i f ->
      let key = key_of each.(i) in
      if key <> good_key then begin
        incr detected;
        Hashtbl.replace classes key (f :: Option.value ~default:[] (Hashtbl.find_opt classes key))
      end)
    faults;
  (* Keep dictionary order inside each class. *)
  Hashtbl.iter (fun k l -> Hashtbl.replace classes k (List.rev l)) classes;
  { good_key; classes; detected = !detected }

type outcome = No_defect | Candidates of Fault.t list | Unknown_defect

let diagnose t ~observed =
  let key = key_of observed in
  if key = t.good_key then No_defect
  else
    match Hashtbl.find_opt t.classes key with
    | Some faults -> Candidates faults
    | None -> Unknown_defect

let num_detected t = t.detected

let num_classes t = Hashtbl.length t.classes

let resolution t =
  if Hashtbl.length t.classes = 0 then 1.0
  else float_of_int t.detected /. float_of_int (Hashtbl.length t.classes)
