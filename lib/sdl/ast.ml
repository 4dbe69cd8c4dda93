type scope = Param | Local | Global

type sigref = {
  complement : bool;
  name : string;
  scope : scope;
  directive : string option;
}

type prop = { p_name : string; p_values : float list }

type instance = {
  i_head : string;
  i_props : prop list;
  i_args : sigref list;
  i_outs : sigref list;
  i_line : int;
}

type macro_def = {
  m_name : string;
  m_params : sigref list;
  m_body : instance list;
  m_line : int;
}

type top_stmt =
  | Period of float * int
  | Clock_unit of float
  | Default_wire of float * float
  | Wire_rule of (float * float) * (float * float)
  | Wire_delay of sigref * (float * float)
  | Width_decl of sigref * int
  | Corners of (string * float list) list
      (* CORNERS slow, typ, hot = 1.4/1.2; — each entry a name with
         optional delay[/wire] scales; a bare name must be a preset *)
  | Macro of macro_def
  | Top_instance of instance

type design = top_stmt list
