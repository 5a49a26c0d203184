(** Gate kinds of the structural netlist.

    The set matches the ISCAS89 `.bench` vocabulary. [And]/[Nand]/[Or]/[Nor]
    accept two or more inputs; [Xor]/[Xnor] are n-input parity gates;
    [Not]/[Buf] are unary. *)

type kind = And | Nand | Or | Nor | Xor | Xnor | Not | Buf

val equal : kind -> kind -> bool

val arity_ok : kind -> int -> bool
(** Whether a gate of this kind may have the given number of inputs. *)

val of_string : string -> kind option
(** Case-insensitive `.bench` keyword, e.g. "NAND". [None] for unknown
    keywords (including "DFF", which is not a gate). *)

val to_string : kind -> string
(** Upper-case `.bench` keyword. *)

val eval_bool : kind -> bool array -> bool
(** Evaluate on concrete boolean inputs. *)

val eval_ternary : kind -> Tvs_logic.Ternary.t array -> Tvs_logic.Ternary.t

val eval_fivev : kind -> Tvs_logic.Fivev.t array -> Tvs_logic.Fivev.t
(** The reference five-valued evaluation (a left fold of the
    {!Tvs_logic.Fivev} connectives); PODEM's table kernel is tested
    against it. *)

val controlling_value : kind -> bool option
(** The input value that forces the output regardless of other inputs:
    0 for AND/NAND, 1 for OR/NOR, none for XOR/XNOR/NOT/BUF. *)

val inversion : kind -> bool
(** Whether the gate inverts its controlled/folded result
    (true for NAND, NOR, XNOR, NOT). *)

val pp : Format.formatter -> kind -> unit
