struct Block { double a; double bfield; };
typedef struct Block Block;

Block *region0;
Block *region1;
Block *region2;
Block *region3;
Block *region4;
Block *region5;
Block *region6;
Block *region7;

extern void sendControl(double v);

void initShm()
/*** SafeFlow Annotation shminit ***/
{
  int id;
  void *base;
  char *cursor;
  id = shmget(6500, 8 * sizeof(Block), 438);
  base = shmat(id, (void *) 0, 0);
  cursor = (char *) base;
  region0 = (Block *) cursor;
  cursor = cursor + sizeof(Block);
  region1 = (Block *) cursor;
  cursor = cursor + sizeof(Block);
  region2 = (Block *) cursor;
  cursor = cursor + sizeof(Block);
  region3 = (Block *) cursor;
  cursor = cursor + sizeof(Block);
  region4 = (Block *) cursor;
  cursor = cursor + sizeof(Block);
  region5 = (Block *) cursor;
  cursor = cursor + sizeof(Block);
  region6 = (Block *) cursor;
  cursor = cursor + sizeof(Block);
  region7 = (Block *) cursor;
  /*** SafeFlow Annotation
       assume(shmvar(region0, sizeof(Block)))
       assume(shmvar(region1, sizeof(Block)))
       assume(shmvar(region2, sizeof(Block)))
       assume(shmvar(region3, sizeof(Block)))
       assume(shmvar(region4, sizeof(Block)))
       assume(shmvar(region5, sizeof(Block)))
       assume(shmvar(region6, sizeof(Block)))
       assume(shmvar(region7, sizeof(Block)))
       assume(noncore(region0))
       assume(noncore(region1))
       assume(noncore(region2))
       assume(noncore(region3))
       assume(noncore(region4))
       assume(noncore(region5))
       assume(noncore(region6))
       assume(noncore(region7))
  ***/
}

double leaf()
{
  double v = region0->a;
  if (v > 5.0 || v < -5.0) {
    return 0.0;
  }
  return v * 0.5;
}

double mA3()
/*** SafeFlow Annotation assume(core(region6, 0, sizeof(Block))) ***/
{
  double v = leaf() + leaf();
  if (v > 10.0) {
    v = 10.0;
  }
  return v;
}

double mB3()
/*** SafeFlow Annotation assume(core(region7, 0, sizeof(Block))) ***/
{
  double v = leaf() + leaf();
  if (v > 10.0) {
    v = 10.0;
  }
  return v;
}

double mA2()
/*** SafeFlow Annotation assume(core(region4, 0, sizeof(Block))) ***/
{
  double v = mA3() + mB3();
  if (v > 10.0) {
    v = 10.0;
  }
  return v;
}

double mB2()
/*** SafeFlow Annotation assume(core(region5, 0, sizeof(Block))) ***/
{
  double v = mA3() + mB3();
  if (v > 10.0) {
    v = 10.0;
  }
  return v;
}

double mA1()
/*** SafeFlow Annotation assume(core(region2, 0, sizeof(Block))) ***/
{
  double v = mA2() + mB2();
  if (v > 10.0) {
    v = 10.0;
  }
  return v;
}

double mB1()
/*** SafeFlow Annotation assume(core(region3, 0, sizeof(Block))) ***/
{
  double v = mA2() + mB2();
  if (v > 10.0) {
    v = 10.0;
  }
  return v;
}

double mA0()
/*** SafeFlow Annotation assume(core(region0, 0, sizeof(Block))) ***/
{
  double v = mA1() + mB1();
  if (v > 10.0) {
    v = 10.0;
  }
  return v;
}

double mB0()
/*** SafeFlow Annotation assume(core(region1, 0, sizeof(Block))) ***/
{
  double v = mA1() + mB1();
  if (v > 10.0) {
    v = 10.0;
  }
  return v;
}

int main()
{
  double total;
  initShm();
  total = mA0() + mB0();
  /*** SafeFlow Annotation assert(safe(total)) ***/
  sendControl(total);
  return 0;
}
