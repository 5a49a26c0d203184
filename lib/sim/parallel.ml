module Circuit = Tvs_netlist.Circuit

type injection = Inject.injection = {
  lane : int;
  stuck : bool;
  stem : Circuit.net;
  branch : (Circuit.net * int) option;
}

type result = { po : int array; capture : int array }

type t = {
  soa : Soa.t;
  values : int array;  (* lane-packed value per net *)
  ov : Inject.t;
}

let create circuit =
  {
    soa = Soa.create circuit;
    values = Array.make (Circuit.num_nets circuit) 0;
    ov = Inject.create circuit;
  }

let circuit t = Soa.circuit t.soa

let run t ~pi ~state ~injections =
  let c = circuit t in
  if Array.length pi <> Circuit.num_inputs c then invalid_arg "Parallel.run: pi length mismatch";
  if Array.length state <> Circuit.num_flops c then invalid_arg "Parallel.run: state length mismatch";
  Inject.clear t.ov;
  Inject.install t.ov injections;
  let soa = t.soa and ov = t.ov and values = t.values in
  Array.iteri
    (fun i net -> values.(net) <- Inject.apply_stem ov net (pi.(i) land Lanes.all_mask))
    (Circuit.inputs c);
  Array.iteri
    (fun i net -> values.(net) <- Inject.apply_stem ov net (state.(i) land Lanes.all_mask))
    (Circuit.flops c);
  (* One cache-friendly sweep over the flat order: gate and const nets only,
     every fanin already evaluated. Branch overrides are rare, so the flagged
     check keeps the per-pin fetch off the common path. *)
  let order = soa.Soa.order in
  for k = 0 to Array.length order - 1 do
    let net = Array.unsafe_get order k in
    let v =
      if Inject.sink_flagged ov net then Soa.eval_inject soa ov values net
      else Soa.eval soa values net
    in
    values.(net) <- Inject.apply_stem ov net v
  done;
  let po = Array.map (fun net -> values.(net)) (Circuit.outputs c) in
  let flops = Circuit.flops c in
  let flop_d = soa.Soa.flop_d in
  let capture =
    Array.init (Array.length flops) (fun i ->
        Inject.fetch ov ~values ~sink:flops.(i) ~pin:0 flop_d.(i))
  in
  { po; capture }

let run_single t ~pi ~state =
  let widen arr = Array.map (fun b -> if b then Lanes.all_mask else 0) arr in
  let r = run t ~pi:(widen pi) ~state:(widen state) ~injections:[] in
  (Array.map (fun w -> Lanes.get w 0) r.po, Array.map (fun w -> Lanes.get w 0) r.capture)

let net_values t = t.values
