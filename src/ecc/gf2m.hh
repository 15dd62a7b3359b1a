/**
 * @file
 * Arithmetic over the finite field GF(2^m), 3 <= m <= 14.
 *
 * Exp/log table implementation. Elements are represented as integers
 * in [0, 2^m - 1]; 0 is the additive zero.
 */

#ifndef SENTINELFLASH_ECC_GF2M_HH
#define SENTINELFLASH_ECC_GF2M_HH

#include <cstdint>
#include <vector>

namespace flash::ecc
{

/** The field GF(2^m) with a fixed primitive polynomial. */
class Gf2m
{
  public:
    /** Build exp/log tables for GF(2^m). */
    explicit Gf2m(int m);

    /** Field extension degree m. */
    int m() const { return m_; }

    /** Field size 2^m. */
    int size() const { return 1 << m_; }

    /** Multiplicative group order 2^m - 1. */
    int order() const { return size() - 1; }

    /** alpha^i for i in [0, order). */
    int
    exp(int i) const
    {
        i %= order();
        if (i < 0)
            i += order();
        return exp_[static_cast<std::size_t>(i)];
    }

    /** Discrete log of a nonzero element. */
    int log(int x) const;

    /** Field addition (XOR). */
    static int add(int a, int b) { return a ^ b; }

    /** Field multiplication. */
    int mul(int a, int b) const;

    /** Multiplicative inverse of a nonzero element. */
    int inv(int a) const;

    /** Field division a / b, b nonzero. */
    int div(int a, int b) const;

    /** a^p for integer p. */
    int pow(int a, int p) const;

  private:
    int m_;
    std::vector<int> exp_;
    std::vector<int> log_;
};

} // namespace flash::ecc

#endif // SENTINELFLASH_ECC_GF2M_HH
