type t = { taps : int list; state : bool array }

let create ?(seed = 1) ~width () =
  if width <= 0 then invalid_arg "Lfsr.create: width must be positive";
  let seed = if seed land ((1 lsl width) - 1) = 0 then 1 else seed in
  {
    taps = Misr.default_taps ~width;
    state = Array.init width (fun i -> seed lsr i land 1 = 1);
  }

let next_bit t =
  let w = Array.length t.state in
  let out = t.state.(w - 1) in
  let feedback = List.fold_left (fun acc i -> acc <> t.state.(i)) false t.taps in
  for i = w - 1 downto 1 do
    t.state.(i) <- t.state.(i - 1)
  done;
  t.state.(0) <- feedback;
  out

let next_vector t n = Array.init n (fun _ -> next_bit t)

let state t = Array.copy t.state

let period_is_maximal ~width =
  let t = create ~width () in
  let start = state t in
  let rec walk steps =
    ignore (next_bit t);
    if t.state = start then steps + 1
    else if steps > 1 lsl width then steps (* safety: non-maximal cycles stop early *)
    else walk (steps + 1)
  in
  walk 0 = (1 lsl width) - 1
