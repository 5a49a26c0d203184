module Parallel = Tvs_sim.Parallel
module Lanes = Tvs_sim.Lanes

type response = bool array list

(* Up to 62 faults share a pass of [Parallel.run]: fault [k] of the pass in
   lane [k + 1], beside the fault-free machine in lane 0. [visit ~pos ~len
   words] sees each pass's faults [pos .. pos + len - 1] and, per test, the
   PO words and then the captured cells' words. The first pass also gives
   the fault-free response, so there is one even with no faults. *)
let iter_passes sim ~tests faults visit =
  let widen arr = Array.map (fun b -> if b then Lanes.all_mask else 0) arr in
  let tests = Array.to_list tests in
  let n = Array.length faults and width = Lanes.width - 1 in
  for pass = 0 to (n - 1) / width do
    let pos = pass * width in
    let len = min width (n - pos) in
    let injections = List.init len (fun k -> Fault.to_injection faults.(pos + k) ~lane:(k + 1)) in
    visit ~pos ~len
      (List.map
         (fun (pi, scan) ->
           let r = Parallel.run sim ~pi:(widen pi) ~state:(widen scan) ~injections in
           Array.append r.Parallel.po r.Parallel.capture)
         tests)
  done

let responses sim ~tests faults =
  let good = ref [] and out = Array.make (Array.length faults) [] in
  iter_passes sim ~tests faults (fun ~pos ~len words ->
      let frames lane = List.map (Array.map (fun w -> Lanes.get w lane)) words in
      if pos = 0 then good := frames 0;
      for k = 0 to len - 1 do
        out.(pos + k) <- frames (k + 1)
      done);
  (!good, out)

let respond sim ~tests ?fault () =
  match fault with
  | None -> fst (responses sim ~tests [||])
  | Some f -> (snd (responses sim ~tests [| f |])).(0)

(* A key packs a response's bits 8 to a byte, frame after frame, lowest bit
   first, and ends with one byte holding the bit count modulo 8, so equal
   keys are equal bit streams. *)
let blank_key nbits =
  let key = Bytes.make ((nbits + 7) / 8 + 1) '\000' in
  Bytes.set key (Bytes.length key - 1) (Char.chr (nbits land 7));
  key

let set_bit key i =
  let byte = i lsr 3 in
  Bytes.set key byte (Char.chr (Char.code (Bytes.get key byte) lor (1 lsl (i land 7))))

let key_of response =
  let key = blank_key (List.fold_left (fun n frame -> n + Array.length frame) 0 response) in
  let i = ref 0 in
  List.iter
    (Array.iter (fun b ->
         if b then set_bit key !i;
         incr i))
    response;
  Bytes.unsafe_to_string key

(* [key_of] of the fault-free response and of every fault's, built straight
   from each pass's lane words, one byte of every lane per 8 words. *)
let keys sim ~tests faults =
  let good = ref "" and out = Array.make (Array.length faults) "" in
  iter_passes sim ~tests faults (fun ~pos ~len words ->
      let words = Array.concat words in
      let nbits = Array.length words in
      let lanes = Array.init (len + 1) (fun _ -> blank_key nbits) in
      for byte = 0 to ((nbits + 7) / 8) - 1 do
        let base = 8 * byte in
        let top = min 8 (nbits - base) - 1 in
        for lane = 0 to len do
          let v = ref 0 in
          for j = 0 to top do
            v := !v lor (((words.(base + j) lsr lane) land 1) lsl j)
          done;
          Bytes.set lanes.(lane) byte (Char.chr !v)
        done
      done;
      if pos = 0 then good := Bytes.unsafe_to_string lanes.(0);
      for k = 0 to len - 1 do
        out.(pos + k) <- Bytes.unsafe_to_string lanes.(k + 1)
      done);
  (!good, out)

type dictionary = {
  good_key : string;
  classes : (string, Fault.t list) Hashtbl.t;  (* faulty behaviours only *)
  detected : int;
}

let build sim ~faults ~tests =
  let good_key, each = keys sim ~tests faults in
  let classes = Hashtbl.create 64 in
  let detected = ref 0 in
  Array.iteri
    (fun i f ->
      let key = each.(i) in
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
