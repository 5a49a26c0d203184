type t = { taps : int list; state : bool array }

let create ~width ~taps =
  if width <= 0 then invalid_arg "Misr.create: width must be positive";
  List.iter (fun i -> if i < 0 || i >= width then invalid_arg "Misr.create: tap out of range") taps;
  { taps; state = Array.make width false }

(* Maximal-length feedback exponents per register width (XAPP052 table),
   converted to 0-based stage indices. *)
let default_taps ~width =
  let poly =
    match width with
    | 2 -> [ 2; 1 ]
    | 3 -> [ 3; 2 ]
    | 4 -> [ 4; 3 ]
    | 5 -> [ 5; 3 ]
    | 6 -> [ 6; 5 ]
    | 7 -> [ 7; 6 ]
    | 8 -> [ 8; 6; 5; 4 ]
    | 9 -> [ 9; 5 ]
    | 10 -> [ 10; 7 ]
    | 11 -> [ 11; 9 ]
    | 12 -> [ 12; 6; 4; 1 ]
    | 13 -> [ 13; 4; 3; 1 ]
    | 14 -> [ 14; 5; 3; 1 ]
    | 15 -> [ 15; 14 ]
    | 16 -> [ 16; 15; 13; 4 ]
    | 17 -> [ 17; 14 ]
    | 18 -> [ 18; 11 ]
    | 19 -> [ 19; 6; 2; 1 ]
    | 20 -> [ 20; 17 ]
    | 24 -> [ 24; 23; 22; 17 ]
    | 32 -> [ 32; 22; 2; 1 ]
    | _ -> [ width; 1 ]
  in
  List.map (fun e -> e - 1) poly

let width t = Array.length t.state

let reset t = Array.fill t.state 0 (Array.length t.state) false

let absorb t data =
  let w = Array.length t.state in
  (* Fold arbitrary-width data into the register width. *)
  let input = Array.make w false in
  Array.iteri (fun i b -> if b then input.(i mod w) <- not input.(i mod w)) data;
  let feedback = List.fold_left (fun acc i -> acc <> t.state.(i)) false t.taps in
  let prev = Array.copy t.state in
  for i = w - 1 downto 1 do
    t.state.(i) <- prev.(i - 1) <> input.(i)
  done;
  t.state.(0) <- feedback <> input.(0)

let absorb_stream t stream = List.iter (absorb t) stream

let signature t = Array.copy t.state

let signature_of ~width stream =
  let t = create ~width ~taps:(default_taps ~width) in
  absorb_stream t stream;
  signature t
