module Json = Tvs_obs.Json
module Wire = Tvs_util.Wire

type severity = Error | Warning | Info

let severity_rank = function Error -> 3 | Warning -> 2 | Info -> 1
let severity_to_string = function Error -> "error" | Warning -> "warning" | Info -> "info"

type t = {
  rule : string;
  severity : severity;
  message : string;
  nets : string list;
  line : int option;
  hint : string option;
}

type rule_info = { id : string; default_severity : severity; title : string }

let catalog =
  [
    { id = "TVS-N001"; default_severity = Error; title = "combinational cycle" };
    { id = "TVS-N002"; default_severity = Warning; title = "no primary inputs" };
    { id = "TVS-N003"; default_severity = Error; title = "no observation points" };
    { id = "TVS-N004"; default_severity = Warning; title = "dangling net" };
    { id = "TVS-N005"; default_severity = Warning; title = "constant primary output driver" };
    { id = "TVS-N006"; default_severity = Warning; title = "trivial single-input gate" };
    { id = "TVS-N007"; default_severity = Warning; title = "repeated fanin" };
    { id = "TVS-N008"; default_severity = Warning; title = "unobservable logic" };
    { id = "TVS-N009"; default_severity = Error; title = "undefined net reference" };
    { id = "TVS-N010"; default_severity = Error; title = "multiply-driven net" };
    { id = "TVS-P001"; default_severity = Error; title = "syntax error" };
    { id = "TVS-D001"; default_severity = Warning; title = "stuck net" };
    { id = "TVS-D002"; default_severity = Warning; title = "constant primary output value" };
    { id = "TVS-D003"; default_severity = Info; title = "constant gate input" };
    { id = "TVS-D004"; default_severity = Warning; title = "untestable stuck-at fault (SAT proof)" };
    { id = "TVS-D005"; default_severity = Info; title = "untestability undecided (budget exhausted)" };
    { id = "TVS-S001"; default_severity = Error; title = "scan-chain cell is not a flip-flop" };
    { id = "TVS-S002"; default_severity = Error; title = "duplicate scan-chain cell" };
    { id = "TVS-S003"; default_severity = Warning; title = "flip-flop missing from the scan chain" };
    { id = "TVS-S004"; default_severity = Info; title = "hidden-fault risk hotspot" };
  ]

let find_rule id = List.find_opt (fun r -> r.id = id) catalog
let known_rule id = find_rule id <> None
let matches filter ~rule = String.starts_with ~prefix:filter rule

let make ?(nets = []) ?line ?hint ~rule message =
  match find_rule rule with
  | None -> invalid_arg (Printf.sprintf "Diagnostic.make: unknown rule %S" rule)
  | Some info -> { rule; severity = info.default_severity; message; nets; line; hint }

let to_ascii d =
  let b = Buffer.create 96 in
  Buffer.add_string b (Printf.sprintf "%-7s %s" (severity_to_string d.severity) d.rule);
  (match d.line with
  | Some l -> Buffer.add_string b (Printf.sprintf " [line %d]" l)
  | None -> ());
  Buffer.add_string b ("  " ^ d.message);
  (match d.hint with
  | Some h -> Buffer.add_string b (Printf.sprintf " (fix: %s)" h)
  | None -> ());
  Buffer.contents b

let to_json d =
  Json.Obj
    [
      ("rule", Json.Str d.rule);
      ("severity", Json.Str (severity_to_string d.severity));
      ("message", Json.Str d.message);
      ("nets", Json.Arr (List.map (fun n -> Json.Str n) d.nets));
      ("line", match d.line with Some l -> Json.Int l | None -> Json.Null);
      ("hint", match d.hint with Some h -> Json.Str h | None -> Json.Null);
    ]

let encode w d =
  Wire.write_string w d.rule;
  Wire.write_u8 w (severity_rank d.severity);
  Wire.write_string w d.message;
  Wire.write_list Wire.write_string w d.nets;
  Wire.write_option (fun w l -> Wire.write_varint w l) w d.line;
  Wire.write_option Wire.write_string w d.hint

let decode r =
  let rule = Wire.read_string r in
  let severity =
    match Wire.read_u8 r with
    | 3 -> Error
    | 2 -> Warning
    | 1 -> Info
    | k -> raise (Wire.Error (Printf.sprintf "bad severity tag %d" k))
  in
  let message = Wire.read_string r in
  let nets = Wire.read_list Wire.read_string r in
  let line = Wire.read_option Wire.read_varint r in
  let hint = Wire.read_option Wire.read_string r in
  { rule; severity; message; nets; line; hint }
