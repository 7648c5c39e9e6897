type mutation = {
  m_line : int;
  m_col : int;
  target : string;
  locked : bool;
  m_lambda : int option;
}

type capture = {
  c_name : string;
  c_line : int;
  c_col : int;
  c_reason : string;
  c_via : string list;
}

type lambda = {
  lam_id : int;
  lam_line : int;
  lam_col : int;
  captures : capture list;
}

type arg_kind = Arg_param of int | Arg_lambda of int | Arg_other

type callsite = {
  cs_line : int;
  cs_col : int;
  callee : string;
  args : arg_kind list;
}

type raise_site = {
  r_line : int;
  r_col : int;
  r_exn : string;
  r_lambdas : int list;
}

type eff_call = {
  e_name : string;
  e_line : int;
  e_col : int;
  e_lambdas : int list;
}

type domain = Linear | Log | Mantissa of string | DUnknown
type domexpr = Known of domain | DCall of string
type dom_op = Dom_add | Dom_exp | Dom_cmp

type domain_site = {
  d_line : int;
  d_col : int;
  d_op : dom_op;
  d_left : domexpr;
  d_right : domexpr;
}

type func = {
  f_name : string;
  f_line : int;
  f_col : int;
  calls : string list;
  mutations : mutation list;
  lambdas : lambda list;
  callsites : callsite list;
  raises : raise_site list;
  eff_calls : eff_call list;
  domain_sites : domain_site list;
  ret_domain : domexpr;
}

type file = { path : string; modname : string; funcs : func list }
