#include "exec/expr.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace lqs {

std::unique_ptr<Expr> Expr::Column(int index) {
  auto e = std::unique_ptr<Expr>(new Expr(Kind::kColumn));
  e->column_index_ = index;
  return e;
}

std::unique_ptr<Expr> Expr::OuterColumn(int index) {
  auto e = std::unique_ptr<Expr>(new Expr(Kind::kOuterColumn));
  e->column_index_ = index;
  return e;
}

std::unique_ptr<Expr> Expr::Literal(Value value) {
  auto e = std::unique_ptr<Expr>(new Expr(Kind::kLiteral));
  e->literal_ = std::move(value);
  return e;
}

std::unique_ptr<Expr> Expr::Compare(CompareOp op, std::unique_ptr<Expr> l,
                                    std::unique_ptr<Expr> r) {
  auto e = std::unique_ptr<Expr>(new Expr(Kind::kCompare));
  e->compare_op_ = op;
  e->left_ = std::move(l);
  e->right_ = std::move(r);
  return e;
}

std::unique_ptr<Expr> Expr::And(std::unique_ptr<Expr> l,
                                std::unique_ptr<Expr> r) {
  auto e = std::unique_ptr<Expr>(new Expr(Kind::kAnd));
  e->left_ = std::move(l);
  e->right_ = std::move(r);
  return e;
}

std::unique_ptr<Expr> Expr::Or(std::unique_ptr<Expr> l,
                               std::unique_ptr<Expr> r) {
  auto e = std::unique_ptr<Expr>(new Expr(Kind::kOr));
  e->left_ = std::move(l);
  e->right_ = std::move(r);
  return e;
}

std::unique_ptr<Expr> Expr::Arith(ArithOp op, std::unique_ptr<Expr> l,
                                  std::unique_ptr<Expr> r) {
  auto e = std::unique_ptr<Expr>(new Expr(Kind::kArith));
  e->arith_op_ = op;
  e->left_ = std::move(l);
  e->right_ = std::move(r);
  return e;
}

Value Expr::Eval(const Row& row, const Row* outer) const {
  switch (kind_) {
    case Kind::kColumn:
      return row[column_index_];
    case Kind::kOuterColumn:
      if (outer == nullptr) {
        // FinalizePlan rejects plans that place outer-column references
        // outside a Nested Loops inner side, so this is unreachable for any
        // finalized plan; fail loudly (in every build type) rather than
        // read through a null pointer if an unvalidated tree gets here.
        std::fprintf(stderr,
                     "lqs: outer column %d evaluated without an outer row "
                     "binding\n",
                     column_index_);
        std::abort();
      }
      return (*outer)[column_index_];
    case Kind::kLiteral:
      return literal_;
    case Kind::kCompare: {
      int cmp = left_->Eval(row, outer).Compare(right_->Eval(row, outer));
      return Value(static_cast<int64_t>(ApplyCompareOp(compare_op_, cmp)));
    }
    case Kind::kAnd: {
      if (left_->Eval(row, outer).AsInt() == 0) return Value(int64_t{0});
      return Value(static_cast<int64_t>(right_->Eval(row, outer).AsInt() != 0));
    }
    case Kind::kOr: {
      if (left_->Eval(row, outer).AsInt() != 0) return Value(int64_t{1});
      return Value(static_cast<int64_t>(right_->Eval(row, outer).AsInt() != 0));
    }
    case Kind::kArith: {
      Value lv = left_->Eval(row, outer);
      Value rv = right_->Eval(row, outer);
      bool ints = lv.type() == DataType::kInt64 && rv.type() == DataType::kInt64;
      switch (arith_op_) {
        case ArithOp::kAdd:
          return ints ? Value(lv.AsInt() + rv.AsInt())
                      : Value(lv.AsDouble() + rv.AsDouble());
        case ArithOp::kSub:
          return ints ? Value(lv.AsInt() - rv.AsInt())
                      : Value(lv.AsDouble() - rv.AsDouble());
        case ArithOp::kMul:
          return ints ? Value(lv.AsInt() * rv.AsInt())
                      : Value(lv.AsDouble() * rv.AsDouble());
        case ArithOp::kDiv: {
          double d = rv.AsDouble();
          return Value(d == 0.0 ? 0.0 : lv.AsDouble() / d);
        }
        case ArithOp::kMod: {
          int64_t m = rv.AsInt();
          return Value(m == 0 ? int64_t{0} : lv.AsInt() % m);
        }
      }
      return Value();
    }
  }
  return Value();
}

int Expr::NodeCount() const {
  int n = 1;
  if (left_) n += left_->NodeCount();
  if (right_) n += right_->NodeCount();
  return n;
}

bool Expr::ContainsOuterColumn() const {
  if (kind_ == Kind::kOuterColumn) return true;
  if (left_ != nullptr && left_->ContainsOuterColumn()) return true;
  return right_ != nullptr && right_->ContainsOuterColumn();
}

std::unique_ptr<Expr> Expr::Clone() const {
  auto e = std::unique_ptr<Expr>(new Expr(kind_));
  e->column_index_ = column_index_;
  e->compare_op_ = compare_op_;
  e->arith_op_ = arith_op_;
  e->literal_ = literal_;
  if (left_) e->left_ = left_->Clone();
  if (right_) e->right_ = right_->Clone();
  return e;
}

DataType Expr::ResultType(const Schema& input) const {
  switch (kind_) {
    case Kind::kColumn:
      return input.column(column_index_).type;
    case Kind::kOuterColumn:
      return DataType::kInt64;  // correlated params are keys in our plans
    case Kind::kLiteral:
      return literal_.type();
    case Kind::kCompare:
    case Kind::kAnd:
    case Kind::kOr:
      return DataType::kInt64;
    case Kind::kArith: {
      if (arith_op_ == ArithOp::kDiv) return DataType::kDouble;
      DataType l = left_->ResultType(input);
      DataType r = right_->ResultType(input);
      if (l == DataType::kInt64 && r == DataType::kInt64)
        return DataType::kInt64;
      return DataType::kDouble;
    }
  }
  return DataType::kInt64;
}

std::string Expr::ToString(const Schema* input) const {
  // Strings are appended in place rather than built by operator+ chains,
  // whose temporaries g++ -O3 misreports as overlapping copies (-Wrestrict).
  auto binary = [&](const char* op) {
    std::string out = "(";
    out.append(left_->ToString(input)).append(" ").append(op).append(" ");
    return out.append(right_->ToString(input)).append(")");
  };
  switch (kind_) {
    case Kind::kColumn:
      if (input != nullptr &&
          column_index_ < static_cast<int>(input->num_columns())) {
        return input->column(column_index_).name;
      }
      return std::string("$").append(std::to_string(column_index_));
    case Kind::kOuterColumn:
      return std::string("outer.$").append(std::to_string(column_index_));
    case Kind::kLiteral:
      return literal_.ToString();
    case Kind::kCompare:
      return binary(CompareOpName(compare_op_));
    case Kind::kAnd:
      return binary("AND");
    case Kind::kOr:
      return binary("OR");
    case Kind::kArith: {
      const char* ops[] = {"+", "-", "*", "/", "%"};
      return binary(ops[static_cast<int>(arith_op_)]);
    }
  }
  return "?";
}

bool Expr::AsColumnCompareLiteral(int* column, CompareOp* op,
                                  Value* literal) const {
  if (kind_ != Kind::kCompare) return false;
  const Expr* l = left_.get();
  const Expr* r = right_.get();
  if (l->kind_ == Kind::kColumn && r->kind_ == Kind::kLiteral) {
    *column = l->column_index_;
    *op = compare_op_;
    *literal = r->literal_;
    return true;
  }
  if (l->kind_ == Kind::kLiteral && r->kind_ == Kind::kColumn) {
    *column = r->column_index_;
    *literal = l->literal_;
    // Flip the operator: 5 < col  ==  col > 5.
    switch (compare_op_) {
      case CompareOp::kLt:
        *op = CompareOp::kGt;
        break;
      case CompareOp::kLe:
        *op = CompareOp::kGe;
        break;
      case CompareOp::kGt:
        *op = CompareOp::kLt;
        break;
      case CompareOp::kGe:
        *op = CompareOp::kLe;
        break;
      default:
        *op = compare_op_;
        break;
    }
    return true;
  }
  return false;
}

void Expr::CollectConjuncts(std::vector<const Expr*>* out) const {
  if (kind_ == Kind::kAnd) {
    left_->CollectConjuncts(out);
    right_->CollectConjuncts(out);
    return;
  }
  out->push_back(this);
}

}  // namespace lqs
